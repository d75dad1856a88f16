import importlib.util
import json
import pathlib
import re
import subprocess
import sys

import pytest

from ncds.cli import main as cli_main
from ncds.harness import (ALPHA_LEGS, PENTAGON_LEGS, PHI_LEGS,
                          alpha_pair_functionals, conjecture_scan,
                          coface_pullback, index_pairs, leg_target,
                          one_loop_equivalence, pentagon_functional,
                          prop_sum_failures, pulled_functional,
                          shifted_pair_functionals, space,
                          verify_theorem_A, verify_theorem_B, verify_theorem_C,
                          verify_theorem_D, verify_theorem_E)
from ncds.barwords import bar_double, pair
from ncds.braid import CHORD_NAMES, insert_triple
from ncds.series import series_to_json

from conftest import random_lie, src_env, x_series


RESIDUAL_GOLDEN = pathlib.Path(__file__).parent / "golden" / "residual_payloads.json"

LEG_STRANDS = {"451": (4, 5, 1), "123": (1, 2, 3), "432": (4, 3, 2),
               "215": (2, 1, 5), "543": (5, 4, 3)}
ORDERS = (("x", "y"), ("y", "x"))


class TestPullback:
    def test_matches_direct_pairing(self, rng):
        # every pullback route against pairing the bar word with the chord
        # expansion insert_triple(psi, i, j, k), which shares no code with it
        for w in (3, 4, 5):
            psi = random_lie(w, rng)
            images = {leg: insert_triple(psi, *ijk) for leg, ijk in LEG_STRANDS.items()}

            def direct(a, b, order, legs):
                bar = bar_double(a, b, order)
                return sum(sign * pair(bar, images[leg]) for sign, leg in legs)

            for a, b in index_pairs(w):
                for order in ORDERS:
                    for leg in LEG_STRANDS:
                        want = direct(a, b, order, ((1, leg),))
                        assert pair(coface_pullback(bar_double(a, b, order), leg),
                                   psi) == want
                        assert pair(pulled_functional(((1, a, b),), order, ((1, leg),)),
                                   psi) == want
            for order, depth_one in ((("y", "x"), False), (("y", "x"), True),
                                     (("x", "y"), True)):
                for (a, b), F in alpha_pair_functionals(w, order, depth_one):
                    assert pair(F, psi) == direct(a, b, order, ALPHA_LEGS), (a, b)
            yx = ("y", "x")
            for (a, b), F in shifted_pair_functionals(w):
                assert pair(F, psi) == direct(a, b, yx, PHI_LEGS) \
                    - direct(a + (b[0],), b[1:], yx, PHI_LEGS), (a, b)

    def test_pulled_equals_pullback_of_word(self):
        for w in range(2, 8):
            for a, b in index_pairs(w):
                for order in ORDERS:
                    bar = bar_double(a, b, order)
                    for leg in LEG_STRANDS:
                        assert pulled_functional(((1, a, b),), order, ((1, leg),)) \
                            == coface_pullback(bar, leg), (a, b, order, leg)
                    assert pulled_functional(((1, a, b),), order, ALPHA_LEGS) \
                        == pentagon_functional(bar, ALPHA_LEGS), (a, b, order)

    def test_every_leg_is_a_word_morphism(self, monkeypatch):
        # both pullback paths need each chord letter to have at most one
        # image among x0, x1, with coefficient 1
        assert set(PENTAGON_LEGS) == set(LEG_STRANDS)
        for leg, (img0, img1) in PENTAGON_LEGS.items():
            assert set(img0.values()) | set(img1.values()) == {1}, leg
            assert not set(img0) & set(img1), leg
            assert leg_target(leg) == tuple(
                0 if n in img0 else 1 if n in img1 else None for n in CHORD_NAMES)
        monkeypatch.setitem(PENTAGON_LEGS, "twice", ({"12": 1}, {"12": 1}))
        monkeypatch.setitem(PENTAGON_LEGS, "scaled", ({"12": 2}, {"23": 1}))
        for leg in ("twice", "scaled"):
            with pytest.raises(ValueError):
                leg_target(leg)

    def test_lemma_432_1_anchor(self):
        # pullback through 432 of l^{y,x}_{(1..1)_k,(1)} is exactly
        # (-1)^(k+1) x0^k x1
        for k in (1, 2, 3, 4):
            F = coface_pullback(bar_double((1,) * k, (1,), ("y", "x")), "432")
            assert F == x_series({"0" * k + "1": (-1) ** (k + 1)}, k + 1)

    def test_alpha_functional_matches_expanded_defect(self, rng):
        # heavyweight route: pair every bar word against the fully expanded
        # pentagon defect and compare with the pullback functional
        from ncds.braid import defect
        from ncds.harness import ALPHA_LEGS, pentagon_functional
        for w in (3, 4, 5):
            psi = random_lie(w, rng)
            alpha = defect(psi)
            for a, b in index_pairs(w):
                for order in (("y", "x"), ("x", "y")):
                    bar = bar_double(a, b, order)
                    assert pair(bar, alpha) == \
                        pair(pentagon_functional(bar, ALPHA_LEGS), psi)


class TestVerifiers:
    def test_theorem_A_small(self):
        rep = verify_theorem_A(4)
        assert rep.ok
        assert [e.status for e in rep.weights] == ["report-only", "pass", "pass"]

    def test_theorem_B_small(self):
        rep = verify_theorem_B(4)
        assert rep.ok
        assert rep.weights[-1].dims == {"dmr0": 0, "bar_kernel": 0, "constraints": 9}

    def test_theorem_C_small(self):
        rep = verify_theorem_C(4)
        assert rep.ok

    def test_theorem_D_small(self):
        rep = verify_theorem_D(5)
        assert rep.ok
        assert {e.w: e.dims["rc0"] for e in rep.weights} == {3: 1, 4: 0, 5: 1}

    def test_theorem_E_small(self):
        rep = verify_theorem_E(4)
        assert rep.ok
        assert rep.weights[0].dims["h_cyclic_invariant"] is True

    def test_conjecture_report_only(self):
        rep = conjecture_scan(4)
        assert all(e.status == "report-only" for e in rep.weights)

    def test_failure_carries_witness(self):
        # unequal spaces must produce a fail entry with a witness series
        from ncds.harness import _entry_for_equality
        from ncds.lie import SolutionSpace, lyndon_basis
        basis = lyndon_basis(3).series()
        s1 = SolutionSpace("a", 3, [basis[0]])
        s2 = SolutionSpace("b", 3, [basis[1]])
        entry = _entry_for_equality(3, "a", s1, "b", s2)
        assert entry.status == "fail"
        assert entry.witness is not None
        assert entry.to_json()["witness"]["terms"]
        from ncds.harness import CheckReport
        assert not CheckReport("x", [entry]).ok

    def test_weights_parameter(self):
        full = verify_theorem_A(4)
        part = verify_theorem_A(4, weights=[4])
        assert part.weights[0].to_json() == full.weights[-1].to_json()


class TestHarnessInvariants:
    def test_prop_sum(self):
        # eq (sum) on dmr0 basis elements, all index pairs of weight <= 6
        assert prop_sum_failures(6) == []

    def test_one_loop_equivalence(self):
        # depth-one bar kernel = (a,b1)/(b1,a) stuffle cut, weights <= 7
        for w, d1, d2, equal in one_loop_equivalence(7):
            assert equal, w

    def test_theorem_B_constraint_count(self):
        # number of non-all-ones index pairs of weight w
        rep = verify_theorem_B(7)
        for e in rep.weights:
            w = e.w
            assert e.dims["constraints"] == (w - 1) * 2 ** (w - 2) - (w - 1)

    def test_krv2_dimensions_frozen(self):
        # solver output, cross-checked by the dense solve in test_kv
        assert {w: space("krv2", w).dimension for w in range(1, 7)} == \
            {1: 1, 2: 0, 3: 1, 4: 0, 5: 1, 6: 0}


class TestPaperPropositions:
    def test_all_ones_alpha_vanishing_for_skew(self, rng):
        # for skew Lie psi with no linear terms, the all-ones pairings of the
        # pentagon defect vanish even without the double-shuffle hypothesis
        from ncds.harness import ALPHA_LEGS, pentagon_functional, _all_ones
        for w in (4, 5, 6):
            psi = random_lie(w, rng, skew=True)
            for k in range(1, w):
                bar = bar_double((1,) * k, (1,) * (w - k), ("y", "x"))
                assert pair(pentagon_functional(bar, ALPHA_LEGS), psi) == 0

    def test_alpha_pairings_vanish_on_skew_dmr(self):
        # theorem: for skew dmr_0 elements all y,x pairings of alpha vanish,
        # all-ones pairs included
        from ncds.harness import ALPHA_LEGS, pentagon_functional
        from ncds.dshuffle import dmr_space
        for w in (3, 5):
            for psi in dmr_space(w).basis:
                from ncds.lie import is_skew
                assert is_skew(psi)
                for a, b in index_pairs(w):
                    bar = bar_double(a, b, ("y", "x"))
                    assert pair(pentagon_functional(bar, ALPHA_LEGS), psi) == 0

    def test_depth_one_evaluation_on_dmr(self):
        # l^{y,x}_{(1..1)_k,(1)}(psi_451 + psi_123) = (-1)^(k+1) c_{x0^k x1}(psi)
        from ncds.harness import PHI_LEGS, pentagon_functional
        from ncds.dshuffle import dmr_space
        for w in (3, 5):
            for psi in dmr_space(w).basis:
                k = w - 1
                F = pentagon_functional(bar_double((1,) * k, (1,), ("y", "x")),
                                        PHI_LEGS)
                assert pair(F, psi) == ((-1) ** (k + 1)) * \
                    psi.coeff(b"\x00" * k + b"\x01")

    def test_corollary_432_all_ones_sum(self):
        # for skew dmr_0 psi the filtered quasi-shuffle sum against psi_432
        # equals the same closed form as the 451+123 sum
        import math
        from fractions import Fraction
        from ncds.dshuffle import dmr_space, sh_le, sigma_compose
        from ncds.harness import pentagon_functional, _all_ones
        for w in (3, 5):
            for psi in dmr_space(w).basis:
                for k in range(1, w):
                    l = w - k
                    total = 0
                    for s in sh_le(k, l):
                        (first, second), tag = sigma_compose(s, (1,) * k, (1,) * l)
                        if tag != "y,x" or not _all_ones(first, second):
                            continue
                        F = pentagon_functional(bar_double(first, second, ("y", "x")),
                                                ((1, "432"),))
                        total += pair(F, psi)
                    coeff = Fraction(math.factorial(k + l - 1),
                                     math.factorial(k) * math.factorial(l))
                    expected = ((-1) ** (k + l)) * coeff \
                        * psi.coeff(b"\x00" * (k + l - 1) + b"\x01")
                    assert total == expected, (w, k, l)


class TestSpacesRegistry:
    def test_names(self):
        assert space("rc", 2).dimension == 1
        assert space("rc0", 2).dimension == 0
        assert space("dmr0", 3).dimension == 1
        assert space("krv2", 1).dimension >= 1
        assert space("krv1skew", 3).dimension == 1
        assert space("conj2", 3).dimension == 1
        with pytest.raises(ValueError):
            space("nope", 3)


class TestCli:
    def run(self, *argv):
        return cli_main(list(argv))

    def test_spaces_stdout(self, capsys):
        assert self.run("spaces", "--set", "rc0", "--weight", "3") == 0
        data = json.loads(capsys.readouterr().out)
        assert data["dimension"] == 1 and data["space"] == "rc0"

    def test_spaces_lambda(self, capsys):
        assert self.run("spaces", "--set", "rc", "--weight", "2",
                        "--lambda", "3/2") == 0
        data = json.loads(capsys.readouterr().out)
        assert data["offset"]["terms"][0]["num"] == "3"
        assert data["offset"]["terms"][0]["den"] == "2"

    def test_spaces_lambda_inconsistent(self, capsys):
        assert self.run("spaces", "--set", "rc", "--weight", "3",
                        "--lambda", "1") == 2

    def test_spaces_lambda_zero_denominator(self, capsys):
        assert self.run("spaces", "--set", "rc", "--weight", "3",
                        "--lambda", "1/0") == 2
        err = capsys.readouterr().err
        assert err.startswith("ncds: ") and "Traceback" not in err

    # a ValueError from inside the program is a crash, not bad input
    @pytest.mark.parametrize("exc", [KeyError, RuntimeError, ValueError])
    def test_internal_error_exits_3(self, monkeypatch, capsys, exc):
        from ncds import harness

        def broken(max_weight, seed=0):
            raise exc("broken verifier")
        monkeypatch.setitem(harness.VERIFIERS, "A", broken)
        assert self.run("verify", "--theorem", "A", "--max-weight", "3") == 3
        assert "Traceback" in capsys.readouterr().err

    def test_import_loads_no_computing_module(self):
        # a warm `ncds spaces` request only needs the cache and the JSON code
        proc = subprocess.run(
            [sys.executable, "-c",
             "import ncds.cli, sys; print(' '.join(sorted(sys.modules)))"],
            capture_output=True, text=True, check=True, env=src_env())
        loaded = set(proc.stdout.split())
        assert "ncds.cli" in loaded
        for name in ("harness", "braid", "barwords", "coaction", "dshuffle", "kv"):
            assert "ncds." + name not in loaded

    def test_verify_pass_exit_code(self, capsys, tmp_path):
        out = tmp_path / "rep.json"
        assert self.run("verify", "--theorem", "C", "--max-weight", "4",
                        "--out", str(out)) == 0
        data = json.loads(out.read_text())
        assert data["check"] == "theorem_C"

    def test_residual_zero_and_nonzero(self, tmp_path, capsys):
        from ncds.lie import lyndon_basis
        b = lyndon_basis(3).series()
        member = b[0] - b[1]
        f = tmp_path / "psi.json"
        f.write_text(json.dumps(series_to_json(member)))
        assert self.run("residual", "--check", "rc", "--in", str(f)) == 0
        capsys.readouterr()
        g = tmp_path / "half.json"
        g.write_text(json.dumps(series_to_json(b[0])))
        assert self.run("residual", "--check", "rc", "--in", str(g)) == 1

    def test_residual_all_checks(self, tmp_path, capsys):
        from ncds.lie import lyndon_basis
        b = lyndon_basis(3).series()
        member = b[0] - b[1]
        f = tmp_path / "psi.json"
        f.write_text(json.dumps(series_to_json(member)))
        # psi3 satisfies all of dmr, krv1, and the nc-krv2 equation
        for check in ("dmr", "krv1", "nckrv2"):
            assert self.run("residual", "--check", check, "--in", str(f)) == 0
            data = json.loads(capsys.readouterr().out)
            assert data["zero"] is True and data["check"] == check
        # the weight-2 commutator fails krv1
        g = tmp_path / "com.json"
        g.write_text(json.dumps(series_to_json(x_series({"01": 1, "10": -1}, 2))))
        assert self.run("residual", "--check", "krv1", "--in", str(g)) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["zero"] is False

    @pytest.mark.parametrize("case", sorted(json.loads(RESIDUAL_GOLDEN.read_text())))
    def test_residual_payload_matches_golden(self, case, tmp_path, capsys):
        # krv1 and nckrv2 stdout, byte for byte, for psi3, [x0, x1] and
        # x1 + [x0, x1]; the last has a linear term, which the tangential
        # pair keeps
        want = json.loads(RESIDUAL_GOLDEN.read_text())[case]
        f = tmp_path / "psi.json"
        f.write_text(json.dumps(want["input"]))
        assert self.run("residual", "--check", want["check"], "--in", str(f)) == want["exit"]
        assert capsys.readouterr().out == want["stdout"]

    def test_residual_input_error(self, tmp_path, capsys):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(series_to_json(x_series({"01": 1}, 2))))
        # not a Lie series: precondition violation is an input error
        assert self.run("residual", "--check", "rc", "--in", str(f)) == 2

    @pytest.mark.parametrize("data", [
        {"alphabet": ["x0", "x1"], "maxWeight": 3,
         "terms": [{"word": "01", "num": "1", "den": "0"}]},
        {"alphabet": ["x0", "x1"], "maxWeight": 3,
         "terms": [{"word": "07", "num": "1", "den": "1"}]},
        [{"word": "01", "num": "1", "den": "1"}],
        {"alphabet": ["x0", "x1"], "maxWeight": 3,
         "terms": [{"word": "01", "num": "5", "den": "1"},
                   {"word": "10", "num": "-1", "den": "1"},
                   {"word": "01", "num": "1", "den": "1"}]},
        {"alphabet": ["x0", "x1"], "maxWeight": 3, "terms": [1]},
        {"alphabet": ["x0", "x1"], "maxWeight": 3},
        {"alphabet": ["x0", "x1"], "weights": [1, 2], "maxWeight": 3,
         "terms": [{"word": "01", "num": "1", "den": "1"}]},
        {"alphabet": ["x0", "x1"], "maxWeight": -1, "terms": []},
        {"alphabet": ["x0", "x1"], "maxWeight": 3,
         "terms": [{"word": "0a", "num": "1", "den": "1"}]},
        {"alphabet": ["x0", "x1"], "maxWeight": 3,
         "terms": [{"word": "01", "num": "1.5", "den": "1"}]},
        {"alphabet": ["x0", "x0"], "maxWeight": 3, "terms": []},
        {"alphabet": ["x0", "x1"], "maxWeight": 1,
         "terms": [{"word": "01", "num": "1", "den": "1"}]},
    ], ids=["zero_den", "digit_outside_alphabet", "top_level_array",
            "duplicate_word", "term_not_object", "missing_terms",
            "non_unit_weights", "negative_max_weight", "word_not_digits",
            "num_not_integer", "duplicate_letter", "word_above_max_weight"])
    def test_malformed_series_is_input_error(self, tmp_path, capsys, data):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(data))
        assert self.run("residual", "--check", "rc", "--in", str(f)) == 2
        err = capsys.readouterr().err
        assert err.startswith("ncds: ") and "Traceback" not in err

    @pytest.mark.parametrize("check", ["rc", "dmr", "krv1", "nckrv2"])
    def test_residual_wrong_alphabet_is_input_error(self, tmp_path, capsys, check):
        # 001 - 2*010 + 100 is Lie, but over a and b instead of x0 and x1
        f = tmp_path / "ab.json"
        f.write_text(json.dumps({"alphabet": ["a", "b"], "maxWeight": 3, "terms": [
            {"word": "001", "num": "1", "den": "1"},
            {"word": "010", "num": "-2", "den": "1"},
            {"word": "100", "num": "1", "den": "1"}]}))
        assert self.run("residual", "--check", check, "--in", str(f)) == 2
        err = capsys.readouterr().err
        assert "['x0', 'x1']" in err and "['a', 'b']" in err

    def test_missing_file_is_input_error(self, capsys):
        assert self.run("residual", "--check", "rc", "--in", "/nonexistent") == 2

    @pytest.mark.parametrize("content", [b"{not json", b"\xff\xfe"],
                             ids=["not_json", "not_utf8"])
    def test_unreadable_json_is_input_error(self, tmp_path, capsys, content):
        f = tmp_path / "bad.json"
        f.write_bytes(content)
        assert self.run("residual", "--check", "rc", "--in", str(f)) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("check,terms", [
        ("dmr", {"01": 1}), ("krv1", {"01": 1}), ("nckrv2", {"01": 1}),
        ("rc", {"0": 1}), ("dmr", {"1": 1}),
    ], ids=["dmr_not_lie", "krv1_not_lie", "nckrv2_not_lie",
            "rc_linear_term", "dmr_linear_term"])
    def test_residual_precondition_is_input_error(self, tmp_path, capsys,
                                                  check, terms):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(series_to_json(x_series(terms, 2))))
        assert self.run("residual", "--check", check, "--in", str(f)) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("name,weight", [
        ("rc0", 1), ("dmr0", 1), ("krv2", 0), ("krv1skew", 0), ("conj2", -1),
        ("krv1skew", 1), ("conj2", 1)])
    def test_weight_below_minimum_is_input_error(self, capsys, name, weight):
        assert self.run("spaces", "--set", name, "--weight", str(weight)) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["abc", "3/", "1/2/3"])
    def test_spaces_lambda_not_rational(self, capsys, text):
        assert self.run("spaces", "--set", "rc", "--weight", "2",
                        "--lambda", text) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_conjecture(self, capsys):
        assert self.run("conjecture", "--max-weight", "3") == 0
        data = json.loads(capsys.readouterr().out)
        assert data["weights"][0]["status"] == "report-only"

    @pytest.mark.parametrize("argv", [("verify", "--theorem", "A"), ("conjecture",)],
                             ids=["verify", "conjecture"])
    def test_elapsed_goes_to_stderr_only(self, capsys, argv):
        # stdout is the byte-stable report; the timing is one stderr line
        outs = []
        for _ in range(2):
            self.run(*argv, "--max-weight", "4")
            out, err = capsys.readouterr()
            outs.append(out)
            check = json.loads(out)["check"]
            timing = [l for l in err.splitlines() if "elapsed" in l]
            assert len(timing) == 1
            assert re.fullmatch(r"%s elapsed \d+\.\d{3} s" % check, timing[0])
            assert err.splitlines()[-1] == timing[0]
        report = (verify_theorem_A if argv[0] == "verify" else conjecture_scan)(4)
        assert outs[0] == outs[1] == json.dumps(report.to_json(), sort_keys=True,
                                                indent=2) + "\n"

    def test_determinism_byte_identical(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        self.run("conjecture", "--max-weight", "4", "--out", str(a))
        self.run("conjecture", "--max-weight", "4", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()
        c = tmp_path / "c.json"
        d = tmp_path / "d.json"
        self.run("verify", "--theorem", "A", "--max-weight", "4", "--out", str(c))
        self.run("verify", "--theorem", "A", "--max-weight", "4", "--out", str(d))
        assert c.read_bytes() == d.read_bytes()

    def test_cache_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("NCDS_CACHE_DIR", str(tmp_path / "cache"))
        assert self.run("spaces", "--set", "dmr0", "--weight", "3") == 0
        first = capsys.readouterr().out
        files = list((tmp_path / "cache").iterdir())
        assert len(files) == 1
        assert self.run("spaces", "--set", "dmr0", "--weight", "3") == 0
        second = capsys.readouterr().out
        assert first == second

    def test_cache_key_is_source_hash(self, tmp_path, monkeypatch, capsys):
        from ncds.lie import source_hash
        monkeypatch.setenv("NCDS_CACHE_DIR", str(tmp_path))
        assert self.run("spaces", "--set", "dmr0", "--weight", "3") == 0
        assert [p.name for p in tmp_path.iterdir()] == ["dmr0-w3-%s.json" % source_hash()]

    @pytest.mark.parametrize("entry", [
        {"space": "dmr0", "weight": 5, "dimension": 0, "basis": []},
        [],
        {"space": "dmr0", "weight": 3, "dimension": 0, "basis": []},
    ], ids=["claims_weight5_dimension0", "top_level_array", "self_consistent_edit"])
    def test_bad_cache_entry_is_recomputed(self, tmp_path, monkeypatch, capsys, entry):
        monkeypatch.setenv("NCDS_CACHE_DIR", str(tmp_path))
        assert self.run("spaces", "--set", "dmr0", "--weight", "3") == 0
        good = capsys.readouterr().out
        (path,) = tmp_path.iterdir()
        path.write_text(json.dumps(entry))
        assert self.run("spaces", "--set", "dmr0", "--weight", "3") == 0
        out = capsys.readouterr().out
        assert out == good and json.loads(out)["dimension"] == 1
        stored = json.loads(path.read_text())
        stored.pop("crc32")
        assert stored == json.loads(good)

    def test_cache_round_trip_pair_basis(self, tmp_path, monkeypatch, capsys):
        # krv2 bases serialize as tangential pairs and reload identically
        monkeypatch.setenv("NCDS_CACHE_DIR", str(tmp_path / "cache"))
        assert self.run("spaces", "--set", "krv2", "--weight", "3") == 0
        first = capsys.readouterr().out
        assert self.run("spaces", "--set", "krv2", "--weight", "3") == 0
        second = capsys.readouterr().out
        assert first == second
        assert json.loads(first)["basis"][0].keys() == {"a1", "a2"}

    def test_warm_krv2_loads_no_computing_module(self, tmp_path, monkeypatch, capsys):
        # reading a cached krv2 space rebuilds tangential pairs without kv
        monkeypatch.setenv("NCDS_CACHE_DIR", str(tmp_path / "cache"))
        assert self.run("spaces", "--set", "krv2", "--weight", "3") == 0
        cold = capsys.readouterr().out
        out = tmp_path / "warm.json"
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from ncds.cli import main; "
             "code = main(['spaces', '--set', 'krv2', '--weight', '3', '--out', %r]); "
             "print(code, ' '.join(sorted(sys.modules)))" % str(out)],
            capture_output=True, text=True, check=True, env=src_env())
        code, *loaded = proc.stdout.split()
        assert code == "0" and out.read_text() == cold
        for name in ("harness", "braid", "barwords", "coaction", "dshuffle", "kv"):
            assert "ncds." + name not in loaded

    def test_entry_point_installed(self):
        # `python -m ncds` runs the main() that pyproject.toml declares as the
        # `ncds` console script, so this holds without an install
        proc = subprocess.run([sys.executable, "-m", "ncds", "--version"],
                              capture_output=True, text=True, env=src_env())
        assert proc.returncode == 0
        assert "ncds" in proc.stdout
        text = (pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        scripts = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
        assert 'ncds = "ncds.cli:main"' in scripts.splitlines()


def test_tracer_names_exist():
    # perfbench/tracer.py wraps ncds functions by name; a rename must fail here
    # rather than crash a traced benchmark run
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for span, funcs, _ in tracer.SPANS:
        module = importlib.import_module("ncds." + span.split(".")[0])
        for fname in funcs:
            assert callable(getattr(module, fname, None)), (span, fname)
    for _, module, fname in tracer.LRU_CACHES:
        fn = getattr(importlib.import_module("ncds." + module), fname, None)
        assert hasattr(fn, "cache_info"), (module, fname)
