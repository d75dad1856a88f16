import copy
import itertools
import json
import pathlib
import random
import re
import subprocess
import sys
import types
from fractions import Fraction

import pytest

from ncds import InputError, braid, harness, linalg
from ncds.cli import main as cli_main, space
from ncds.harness import (alpha_pair_functionals, conj2_space, conjecture_scan,
                          coface_pullback, index_pairs, leg_target,
                          one_loop_equivalence, pentagon_functional,
                          prop_sum_failures, pulled_functional,
                          shifted_pair_functionals,
                          lemma_cab23_failures, lemma_cabling34_failures,
                          lemma_dihedral_failures, lemma_polylogs_failures,
                          random_lie_series, stuffle_identity_failures,
                          verify_theorem_A, verify_theorem_B, verify_theorem_C,
                          verify_theorem_D, verify_theorem_E)
from ncds.barwords import _bar_xy, bar_double, bar_single, order_target, pair
from ncds.braid import ALPHA_LEGS, CHORD_NAMES, PHI_LEGS, leg_insertion
from ncds.coaction import _c4_in_eta, change_of_variable, rc_space, solve_in_eta
from ncds.kv import _krv1_linear, krv1skew_space, tangential_pair_of
from ncds.lie import (certify_space, lyndon_basis, series_span_contains,
                      skew_constraint, skew_functionals, solve_space)
from ncds.series import (AT_SUM_ZERO, AT_X1_ZERO, S_AT_MINUS_X0, S_AT_X1,
                         Series, fox_derivative, letter_swap,
                         series_to_json, substitute, two_letter_alphabet, _iadd)

from conftest import (alpha_functionals, count_solves, random_lie, ref_krv1,
                      space_from_json, src_env, words_space, x_series)


RESIDUAL_GOLDEN = pathlib.Path(__file__).parent / "golden" / "residual_payloads.json"

LEGS = [leg for _sign, leg in ALPHA_LEGS]
ORDERS = (("x", "y"), ("y", "x"))


def _basis_json(solved):
    return [b.to_json() for b in solved.basis]


class TestPullback:
    def test_matches_direct_pairing(self, rng):
        # every pullback route against pairing the bar word with the chord
        # expansion psi(x_ij, x_jk): the insertion itself, not its transpose
        for w in (3, 4, 5):
            psi = random_lie(w, rng)
            images = {leg: substitute(psi, leg_insertion(leg)) for leg in LEGS}

            def direct(a, b, order, legs):
                bar = bar_double(a, b, order)
                return sum(sign * pair(bar, images[leg]) for sign, leg in legs)

            for a, b in index_pairs(w):
                for order in ORDERS:
                    for leg in LEGS:
                        want = direct(a, b, order, ((1, leg),))
                        assert pair(coface_pullback(bar_double(a, b, order), leg),
                                   psi) == want
                        assert pair(pulled_functional(a, b, order, ((1, leg),)),
                                   psi) == want
            for order, depth_one in ((("y", "x"), False), (("y", "x"), True),
                                     (("x", "y"), True)):
                for (a, b), F in alpha_functionals(w, order, depth_one):
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
                    for leg in LEGS:
                        assert pulled_functional(a, b, order, ((1, leg),)) \
                            == coface_pullback(bar, leg), (a, b, order, leg)
                    assert pulled_functional(a, b, order, ALPHA_LEGS) \
                        == pentagon_functional(bar, ALPHA_LEGS), (a, b, order)

    def test_every_leg_is_a_word_morphism(self):
        # both pullback paths need each chord letter to have at most one
        # image among x0, x1, with coefficient 1: the target sends a chord to
        # the x letter whose image under psi -> psi(x_ij, x_jk) holds it
        for leg in LEGS:
            img0, img1 = (braid.rewrite_chord(int(leg[a]), int(leg[a + 1]))
                          for a in (0, 1))
            assert set(img0.values()) | set(img1.values()) == {1}, leg
            assert not set(img0) & set(img1), leg
            assert leg_target(leg) == tuple(
                0 if n in img0 else 1 if n in img1 else None for n in CHORD_NAMES)
        # x13 = -x12 - x23 + x45 and x35 = x12 - x34 - x45 share x12, with
        # coefficient -1 in the first
        with pytest.raises(ValueError):
            leg_target("135")

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
        from ncds.harness import pentagon_functional
        for w in (3, 4, 5):
            psi = random_lie(w, rng)
            alpha = defect(psi)
            for a, b in index_pairs(w):
                for order in (("y", "x"), ("x", "y")):
                    bar = bar_double(a, b, order)
                    assert pair(bar, alpha) == \
                        pair(pentagon_functional(bar, ALPHA_LEGS), psi)


def _all_compositions(total):
    # every composition of total, read off the subsets of the total - 1 cuts
    out = []
    for cuts in itertools.product((False, True), repeat=total - 1):
        parts, run = [], 1
        for cut in cuts:
            if cut:
                parts.append(run)
                run = 1
            else:
                run += 1
        out.append(tuple(parts + [run]))
    return out


def _expected_keys(w, shape):
    keys = []
    for wa in range(1, w):
        for a in _all_compositions(wa):
            for b in _all_compositions(w - wa):
                ones = set(a + b) == {1}
                if shape == "depth_one" and len(b) == 1 \
                        or shape == "alpha" and not ones \
                        or shape == "shifted" and len(b) >= 2 and not ones:
                    keys.append((a, b))
    return keys


class TestFunctionalFamilies:
    # the goldens cannot see a dropped functional: at w >= 3 each cut
    # leaves its base space unchanged (test_cuts.py), so the key sets are
    # checked here against an independent enumeration

    @pytest.mark.parametrize("w", range(2, 10))
    def test_each_family_yields_every_key_once(self, w):
        yx, xy = harness.depth_one_families(w)
        families = {
            "alpha": alpha_pair_functionals(w),
            "yx": yx,
            "xy": xy,
            "shifted": shifted_pair_functionals(w),
        }
        for name, family in families.items():
            shape = {"yx": "depth_one", "xy": "depth_one"}.get(name, name)
            keys = [key for key, _F in family]
            assert len(keys) == len(set(keys)), (name, w)
            assert sorted(keys) == sorted(_expected_keys(w, shape)), (name, w)

    @pytest.mark.parametrize("family, order, legs", [
        (lambda w: alpha_pair_functionals(w), ("y", "x"), ALPHA_LEGS),
        (lambda w: harness.depth_one_families(w)[1], ("x", "y"), ALPHA_LEGS),
        (lambda w: shifted_pair_functionals(w), ("y", "x"), PHI_LEGS),
    ])
    def test_family_words_stay_out_of_the_memo(self, family, order, legs):
        # after a family is built, each of its own top-level words is one
        # cache miss (not kept), and every sub-result it reads is a hit
        w = 7
        _bar_xy.cache_clear()  # no word left by an earlier test
        keys = [key for key, _F in family(w)]
        targets = [order_target(order, leg_target(leg)) for _s, leg in legs]
        for a, b in keys:
            for target in targets:
                misses = _bar_xy.cache_info().misses
                _bar_xy(a, b, target)
                assert _bar_xy.cache_info().misses == misses + 1, (a, b, target)


def test_theorem_B_peak_rss_rise_is_bounded():
    # B at weight 10 in a fresh interpreter: the functional families stream
    # into the solver as rows and their own bar words stay out of the memo,
    # so the peak RSS rises about 14 MB over the post-import RSS (about
    # 55 MB when every functional, a word index and every word were kept;
    # Linux, Python 3.11)
    code = "\n".join([
        "import resource, sys",
        "import ncds.harness as h",
        "unit = 1 if sys.platform == 'darwin' else 1024  # ru_maxrss: B or KiB",
        "peak = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * unit",
        "base = peak()",
        "assert h.verify_theorem_B(10, weights=[10]).ok",
        "print((peak() - base) / 2 ** 20)",
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=src_env())
    assert float(proc.stdout) < 40


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

    def test_theorem_D_weights_above_max_weight(self):
        # the bases reach the largest checked weight, not max_weight
        got = verify_theorem_D(3, weights=[5]).to_json()["weights"]
        assert got == verify_theorem_D(5, weights=[5]).to_json()["weights"]
        assert got[0]["w"] == 5 and got[0]["status"] == "pass"
        with pytest.raises(InputError):  # as A, B, C and E do, not KeyError
            verify_theorem_D(3, weights=[1])

    def test_theorem_E_small(self):
        rep = verify_theorem_E(4)
        assert rep.ok
        assert rep.weights[0].dims["h_cyclic_invariant"] is True

    def test_theorems_solve_rc_and_dmr0_once_per_weight(self, monkeypatch):
        # A-E at the default ceilings in one process cut the same memoized
        # rc and dmr_0 spaces
        import ncds.coaction, ncds.dshuffle
        counts = count_solves(monkeypatch, ncds.coaction, ncds.dshuffle)
        for name in "ABCDE":
            assert harness.VERIFIERS[name](harness.DEFAULT_CEILINGS[name]).ok
        for name in ("rc", "dmr0"):
            solved = {w: n for (s, w), n in counts.items() if s == name}
            assert sorted(solved) == list(range(2, 9)), name
            assert set(solved.values()) == {1}, name

    def test_conjecture_report_only(self):
        rep = conjecture_scan(4)
        assert all(e.status == "report-only" for e in rep.weights)

    def test_failure_carries_witness(self):
        # unequal spaces must produce a fail entry with a witness series
        from ncds.harness import _check, _spans_entry
        from ncds.lie import SolutionSpace
        basis = lyndon_basis(3).series()
        s1 = SolutionSpace("a", 3, [basis[0]])
        s2 = SolutionSpace("b", 3, [basis[1]])
        rep = _check("x", 3, 3, None, lambda w: _spans_entry({"a": s1, "b": s2}))
        entry, = rep.weights
        assert entry.status == "fail" and entry.dims == {"a": 1, "b": 1}
        assert entry.witness is not None
        assert entry.to_json()["witness"]["terms"]
        assert not rep.ok

    def test_no_verdict_is_report_only(self):
        # None failures: no verdict, report-only at every weight
        from ncds.harness import _check
        rep = _check("x", 2, 4, None, lambda w: ({"w": w}, None))
        assert [e.status for e in rep.weights] == ["report-only"] * 3
        assert all(e.witness is None for e in rep.weights) and rep.ok
        rep = _check("x", 2, 3, None, lambda w: ({}, []))
        assert [e.status for e in rep.weights] == ["report-only", "pass"]
        entry, = _check("x", 3, 3, None, lambda w: ({}, [None])).weights
        assert entry.status == "fail" and entry.witness is None

    def test_weights_parameter(self):
        full = verify_theorem_A(4)
        part = verify_theorem_A(4, weights=[4])
        assert part.weights[0].to_json() == full.weights[-1].to_json()


@pytest.mark.parametrize("w", range(2, 9))
class TestConjectureSpacesOnTheWordsChart:
    """Both sides of the conjecture scan against the brute-force words chart,
    basis for basis.  The krv1 side uses conftest's ref_krv1, which shares no
    ncds.kv code with krv1skew_space."""

    def test_krv1skew(self, w):
        want = words_space(w, [skew_constraint, ref_krv1])
        assert _basis_json(krv1skew_space(w)) == _basis_json(want)

    def test_conj2(self, w):
        want = words_space(w, [skew_constraint, shifted_pair_functionals(w)])
        assert _basis_json(conj2_space(w)) == _basis_json(want)


class TestFailingChecks:
    # faults injected into the names the checks call, so that each failing
    # path of the check loop is driven end to end

    def test_theorem_C_fail(self, monkeypatch):
        # a change-of-variable equation, written on eta, that kills rc_0: the
        # family iv certifies with and solves in eta on the miss
        monkeypatch.setattr(harness, "c4_functionals", lambda w: (
            (u, Series(two_letter_alphabet(), w, {u: 1}))
            for u in map(bytes, itertools.product((0, 1), repeat=w))))
        rep = verify_theorem_C(3)
        assert [e.status for e in rep.weights] == ["report-only", "fail"]
        entry = rep.weights[1]
        assert entry.dims["iv_mu"] == 0 and entry.dims["i_rc0"] == 1
        assert entry.witness == rc_space(3).basis[0].to_json()

    def test_theorem_D_fail_carries_first_witness(self, monkeypatch):
        monkeypatch.setattr(harness, "frak_b_check", lambda q: (False, None))
        rep = verify_theorem_D(3)
        entry, = rep.weights
        assert entry.status == "fail" and not rep.ok
        assert entry.witness == rc_space(3, 0).basis[0].to_json()
        # at w=8 the bracket of the weight-3 and weight-5 elements fails
        # too, after the gamma cocycle condition on the rc_0 element
        outside = lyndon_basis(8).series()[0]
        assert not series_span_contains(rc_space(8, 0).basis, outside)
        monkeypatch.setattr(harness, "ihara_bracket", lambda a, b: outside)
        entry, = verify_theorem_D(8, weights=[8]).weights
        assert entry.status == "fail" and entry.dims == {"rc0": 1, "brackets": 1}
        assert entry.witness == rc_space(8, 0).basis[0].to_json()

    def test_theorem_E_fail_on_krv2_fit(self, monkeypatch):
        residual = Series.letter(two_letter_alphabet(), "x0", 3)
        monkeypatch.setattr(harness, "nc_krv2_fit", lambda u: (residual, None))
        entry, = verify_theorem_E(3).weights
        assert entry.status == "fail"
        rc0_krv1 = solve_space(3, [_krv1_linear], space="rc0krv1", chart=rc_space(3))
        assert entry.witness == rc0_krv1.basis[0].to_json()

    def test_theorem_E_witness_is_the_canonical_element(self, monkeypatch):
        # at w=5 the rc_0 ∩ krv1 element has a coefficient 11/2: the checks
        # run on its integer multiple, but the witness is the element itself
        residual = Series.letter(two_letter_alphabet(), "x0", 5)
        monkeypatch.setattr(harness, "nc_krv2_fit", lambda u: (residual, None))
        entry, = verify_theorem_E(5, weights=[5]).weights
        assert entry.status == "fail"
        psi, = solve_space(5, [_krv1_linear], space="rc0krv1", chart=rc_space(5)).basis
        assert any(isinstance(c, Fraction) for c in psi.terms.values())
        assert entry.witness == psi.to_json()

    def test_theorem_E_checks_integer_multiples(self, monkeypatch):
        seen = []

        def recording(psi):
            seen.extend(psi.terms.values())
            return tangential_pair_of(psi)
        monkeypatch.setattr(harness, "tangential_pair_of", recording)
        assert verify_theorem_E(7, weights=[7]).ok
        assert seen and all(type(c) is int for c in seen)

    def test_theorem_E_compares_normalized_pairs(self, monkeypatch):
        # E compares each tangential pair with krv2 as it is: a pair of
        # weight w >= 2 has no linear term to strip
        pairs = []

        def recording(psi):
            pairs.append(tangential_pair_of(psi))
            return pairs[-1]
        monkeypatch.setattr(harness, "tangential_pair_of", recording)
        assert verify_theorem_E(9, weights=range(2, 10)).ok
        assert {len(next(iter(u.terms))[1]) for u in pairs} == {3, 5, 7, 8, 9}
        assert all(u.normalized() == u for u in pairs)

    def test_theorem_E_fail_on_nonadmissible_sum(self, monkeypatch):
        value = harness.nonadmissible_sum_value
        monkeypatch.setattr(harness, "nonadmissible_sum_value",
                            lambda psi, k, l: value(psi, k, l) + 1)
        rep = verify_theorem_E(3)
        entry, = rep.weights
        assert entry.status == "fail" and not rep.ok
        assert entry.dims["nonadmissible1111"] is False
        assert "witness" not in entry.to_json()

    @pytest.mark.parametrize("check", [verify_theorem_D, verify_theorem_E],
                             ids=["D", "E"])
    def test_weight_2_is_report_only(self, check):
        entry, = check(2, weights=[2]).weights
        assert entry.status == "report-only"

    def test_cli_exit_codes(self, monkeypatch, capsys):
        monkeypatch.setattr(harness, "frak_b_check", lambda q: (False, None))
        assert cli_main(["verify", "--theorem", "D", "--max-weight", "3"]) == 1
        assert json.loads(capsys.readouterr().out)["weights"][0]["status"] == "fail"
        with pytest.raises(SystemExit) as exc:  # the seed option is gone
            cli_main(["verify", "--theorem", "A", "--seed", "1"])
        assert exc.value.code == 2


def _c_families(w, order):
    return [skew_functionals(w), alpha_functionals(w, order, True)]


def _full_solve(w, families, base, space):
    # the route forced to fall back: theorem C's sides solved in full
    return solve_space(w, families, space)


def _force_fallback(monkeypatch):
    """Every certificate of theorem C forced to miss: ii and iii are solved
    in full, and iv in eta."""
    monkeypatch.setattr(harness, "certify_space", _full_solve)
    monkeypatch.setattr(harness, "spans_kernel", lambda w, families, elements: False)


class TestCertifiedBarKernels:
    # theorem C's sides other than rc are certified against the solved rc
    # (lie.spans_kernel: exact inclusion, then a one-prime rank bound) and
    # solved in full only on a miss, so each dim and witness is a full solve's

    @staticmethod
    def spy(monkeypatch):
        """The full solves the certificates fall back to, as (weight, space),
        and per rank bound the rows it read."""
        import ncds.lie, ncds.linalg
        solve, rank = ncds.lie.solve_space, ncds.linalg.rank_mod_p
        in_eta = harness.solve_in_eta
        fallbacks, drawn = [], []

        def counted_solve(weight, constraints, space="anon", chart="lyndon"):
            fallbacks.append((weight, space))
            return solve(weight, constraints, space, chart)

        def counted_in_eta(weight, constraints, space):
            fallbacks.append((weight, space))
            return in_eta(weight, constraints, space)

        def counted_rank(rows, cols, target):
            log = []
            drawn.append(log)

            def read():
                for row in rows:
                    log.append(row)
                    yield row
            return rank(read(), cols, target)
        monkeypatch.setattr(ncds.lie, "solve_space", counted_solve)
        monkeypatch.setattr(harness, "solve_in_eta", counted_in_eta)
        monkeypatch.setattr(ncds.linalg, "rank_mod_p", counted_rank)
        return fallbacks, drawn

    @pytest.mark.parametrize("order", ORDERS, ids=["xy", "yx"])
    @pytest.mark.parametrize("w", range(2, 10))
    def test_route_certifies_the_full_solve(self, monkeypatch, w, order):
        want = json.dumps(solve_space(w, _c_families(w, order), space="c").to_json())
        fallbacks, drawn = self.spy(monkeypatch)
        got = certify_space(w, _c_families(w, order), rc_space(w), space="c")
        assert fallbacks == [] and len(drawn) == 1
        assert json.dumps(got.to_json()) == want
        if w == 9:
            # the seeded order reads 64 of the 311 rows over 56 columns, in
            # four chunks of 16: the first three stay below cols - d = 55,
            # all four reach it, and so do all 311 rows
            rows = drawn[0]
            assert len(rows) == 64
            assert linalg.rank_mod_p(rows[:48], 56, 56) < 55
            assert linalg.rank_mod_p(rows, 56, 56) == 55
            columns = [b.terms for b in lyndon_basis(w).series()]
            full = [[sum(v * col.get(k, 0) for k, v in F.terms.items()) for col in columns]
                    for family in _c_families(w, order) for _key, F in family]
            assert len(full) == 311
            assert linalg.rank_mod_p(full, 56, 56) == 55

    @pytest.mark.parametrize("w", range(2, 10))
    def test_change_of_variable_side_is_the_eta_solve(self, monkeypatch, w):
        # iv certified on the eta chart against change_of_variable(rc) is
        # the side solve_in_eta gives, byte for byte, with one rank bound
        want = json.dumps(solve_in_eta(w, [_c4_in_eta], "c4").to_json())
        fallbacks, drawn = self.spy(monkeypatch)
        got = harness.change_of_variable_side(w, rc_space(w))
        assert fallbacks == [] and len(drawn) == 1
        assert json.dumps(got.to_json()) == want

    @pytest.mark.parametrize("w", range(2, 10))
    def test_forced_miss_of_iv_solves_the_listed_family(self, monkeypatch, w):
        # on a miss iv solves in eta the very list the certificate read, and
        # that solve is the callable's, byte for byte
        want = json.dumps(solve_in_eta(w, [_c4_in_eta], "c4").to_json())
        in_eta, solved = harness.solve_in_eta, []
        monkeypatch.setattr(harness, "spans_kernel", lambda w, families, elements:
                            solved.append(families) or False)
        monkeypatch.setattr(harness, "solve_in_eta", lambda w, c, space:
                            solved.append(c) or in_eta(w, c, space))
        got = harness.change_of_variable_side(w, rc_space(w))
        assert json.dumps(got.to_json()) == want
        (listed,), (solved_with,) = solved
        assert solved_with is listed and listed == list(harness.c4_functionals(w))

    def test_depth_one_families_share_their_leg_words(self, monkeypatch):
        # both families as the reference builds them, one pulled functional
        # per key and order, from 5 leg recursions per key instead of 10
        for w in (3, 6, 9):
            want = [list(alpha_functionals(w, order, True))
                    for order in (("y", "x"), ("x", "y"))]
            calls = []
            body = _bar_xy.__wrapped__
            monkeypatch.setattr(harness, "_bar_xy", types.SimpleNamespace(
                __wrapped__=lambda *args: calls.append(args) or body(*args)))
            got = harness.depth_one_families(w)
            monkeypatch.undo()
            for g, f in zip(got, want):
                assert [(k, list(F.terms.items())) for k, F in g] == \
                    [(k, list(F.terms.items())) for k, F in f]
            assert len(calls) == 5 * len(want[0])

    def test_theorem_C_matches_the_forced_fallback(self, monkeypatch):
        got = json.dumps(verify_theorem_C(9).to_json())
        in_eta, solved = harness.solve_in_eta, []
        monkeypatch.setattr(harness, "solve_in_eta", lambda w, c, space:
                            solved.append(w) or in_eta(w, c, space))
        _force_fallback(monkeypatch)
        assert json.dumps(verify_theorem_C(9).to_json()) == got
        assert solved == list(range(2, 10))

    def test_larger_side_misses_the_bound(self, monkeypatch):
        # skew Lie series alone: inclusion holds, the bound misses, and the
        # full solve gives the larger space
        fallbacks, drawn = self.spy(monkeypatch)
        for w in (5, 6, 7):
            got = certify_space(w, [skew_functionals(w)], rc_space(w), space="c2")
            assert fallbacks[-1] == (w, "c2") and len(drawn) == w - 4
            want = solve_space(w, [skew_functionals(w)], space="c2")
            assert json.dumps(got.to_json()) == json.dumps(want.to_json())
            assert got.dimension > rc_space(w).dimension

    def test_repeated_key_is_solved(self, monkeypatch):
        # solve_space sums a repeated key's functionals into one row, so the
        # route takes no bound on the unsummed rows
        fallbacks, drawn = self.spy(monkeypatch)
        skew, alpha = (list(f) for f in _c_families(7, ("y", "x")))
        got = certify_space(7, [skew, alpha + alpha[:1]], rc_space(7), space="c2")
        assert fallbacks == [(7, "c2")] and drawn == []
        want = solve_space(7, [skew, alpha], space="c2")
        assert json.dumps(got.to_json()) == json.dumps(want.to_json())

    @classmethod
    def planted_fail(cls, monkeypatch):
        """C's report at w <= 7, with a planted fault, through the route,
        then the fallbacks and rank bounds the route ran, and the report
        through the forced fallback."""
        fallbacks, drawn = cls.spy(monkeypatch)
        got = verify_theorem_C(7).to_json()
        ran = list(fallbacks), len(drawn)
        _force_fallback(monkeypatch)
        return got, ran, verify_theorem_C(7).to_json()

    def test_planted_larger_side_gives_the_full_solve_report(self, monkeypatch):
        monkeypatch.setattr(harness, "depth_one_families", lambda w: ([], []))
        got, (fallbacks, bounds), want = self.planted_fail(monkeypatch)
        assert json.dumps(got) == json.dumps(want)
        # at w <= 3 the skew Lie series are rc, and the route certifies them
        assert [e["status"] for e in got["weights"]] == ["report-only", "pass"] + ["fail"] * 4
        assert fallbacks == [(w, s) for w in range(4, 8) for s in ("c2", "c3")]
        # ii and iii take a bound at every weight, and so does iv
        assert bounds == 3 * 6

    def test_planted_functional_fails_inclusion(self, monkeypatch):
        # one functional nonzero on rc, at the least word of its first
        # element: the side loses that element, and no rank bound runs
        families = harness.depth_one_families

        def planted(w):
            word = min(rc_space(w).basis[0].terms) if rc_space(w).basis else b"\0" * w
            F = ((0,), ()), Series(two_letter_alphabet(), w, {word: 1})
            return tuple(family + [F] for family in families(w))
        monkeypatch.setattr(harness, "depth_one_families", planted)
        got, (fallbacks, bounds), want = self.planted_fail(monkeypatch)
        assert json.dumps(got) == json.dumps(want)
        dims = {e["w"]: e["dims"] for e in got["weights"]}
        assert [dims[w]["ii_yx"] for w in range(2, 8)] == [0] * 6
        assert [dims[w]["i_rc0"] for w in range(2, 8)] == [1, 1, 0, 1, 0, 1]
        assert got["weights"][1]["witness"] == rc_space(3).basis[0].to_json()
        # ii and iii take a bound only where rc is empty and inclusion holds
        # at once; iv, unplanted, takes one at every weight
        assert bounds == 2 * 2 + 6
        assert sorted(w for w, _ in fallbacks) == [2, 2, 3, 3, 5, 5, 7, 7]

    @staticmethod
    def plant_c4(monkeypatch, keep=lambda v: True, extra=None):
        """The change-of-variable family with a fault, which iv certifies
        with and solves in eta on a miss: only the rows at words v with
        keep(v), and a row at the word extra(w), if given, that reads eta's
        coefficient there."""
        family = harness.c4_functionals

        def planted_family(w):
            yield from ((v, F) for v, F in family(w) if keep(v))
            if extra:
                yield extra(w), Series(two_letter_alphabet(), w, {extra(w): 1})
        monkeypatch.setattr(harness, "c4_functionals", planted_family)

    def test_planted_c4_functional_fails_inclusion(self, monkeypatch):
        # a row nonzero on change_of_variable(rc), at the least word of its
        # first element: iv loses that element, and its bound runs only
        # where rc is empty
        def word(w):
            basis = rc_space(w).basis
            return min(change_of_variable(basis[0]).terms) if basis else b"\0" * w
        self.plant_c4(monkeypatch, extra=word)
        got, (fallbacks, bounds), want = self.planted_fail(monkeypatch)
        assert json.dumps(got) == json.dumps(want)
        dims = {e["w"]: e["dims"] for e in got["weights"]}
        assert [dims[w]["iv_mu"] for w in range(2, 8)] == [0] * 6
        assert [dims[w]["ii_yx"] for w in range(2, 8)] == [1, 1, 0, 1, 0, 1]
        assert [e["status"] for e in got["weights"]] == [
            "report-only", "fail", "pass", "fail", "pass", "fail"]
        assert got["weights"][1]["witness"] == rc_space(3).basis[0].to_json()
        assert fallbacks == [(w, "c4") for w in (2, 3, 5, 7)]
        assert bounds == 2 * 6 + 2

    def test_dropped_c4_rows_miss_the_bound(self, monkeypatch):
        # only the rows at words ending in x0: at w=4 the eta kernel grows,
        # the bound misses there alone, and the eta solve finds iv larger
        # than rc
        self.plant_c4(monkeypatch, keep=lambda v: v[-1] == 0)
        got, (fallbacks, bounds), want = self.planted_fail(monkeypatch)
        assert json.dumps(got) == json.dumps(want)
        dims = {e["w"]: e["dims"] for e in got["weights"]}
        assert [dims[w]["iv_mu"] for w in range(2, 8)] == [1, 1, 1, 1, 0, 1]
        assert [e["status"] for e in got["weights"]] == [
            "report-only", "pass", "fail", "pass", "pass", "pass"]
        assert got["weights"][2]["witness"] == solve_in_eta(
            4, [lambda eta: {v: c for v, c in _c4_in_eta(eta).terms.items()
                             if v[-1] == 0}], "c4").basis[0].to_json()
        assert fallbacks == [(4, "c4")] and bounds == 3 * 6

    def test_theorem_B_builds_the_same_bar_words(self, monkeypatch):
        # bar_frontier times one B9 pass, and a pass that ends before
        # hostref.PERIOD takes no host-speed sample, so its worker exits with
        # "no host-speed reference samples"; a B9 pass must run the same
        # work until ROADMAP item 1 re-points the workload.  From an empty
        # memo, B7 runs the uncached bar-word recursion 1,500 times for its
        # functionals and misses the memo 630 times inside them.
        calls = []
        body = _bar_xy.__wrapped__
        monkeypatch.setattr(harness, "_bar_xy", types.SimpleNamespace(
            __wrapped__=lambda *args: calls.append(args) or body(*args)))
        _bar_xy.cache_clear()
        verify_theorem_B(7)
        assert len(calls) == 1500 and _bar_xy.cache_info().misses == 630

    @pytest.mark.parametrize("w", range(2, 10))
    def test_theorem_B_family_is_the_reference_family(self, w):
        # B's family, keys, order and terms, is the y,x family over the pairs
        # not all ones that the reference builds one key at a time
        got = [(k, list(F.terms.items())) for k, F in alpha_pair_functionals(w)]
        assert got == [(k, list(F.terms.items()))
                       for k, F in alpha_functionals(w, ("y", "x"), False)]

    def test_theorem_B_solves_in_full_and_C_certifies_every_side(self, monkeypatch):
        # B's bar side keeps its full solve, though the same route would
        # certify it against dmr0: bar_frontier times one B9 pass, and a
        # pass that ends before hostref.PERIOD takes no host-speed sample,
        # so its worker exits with "no host-speed reference samples";
        # changes that made B9 faster failed that way, and stay out until
        # ROADMAP item 1 re-points the workload.  C certifies ii and iii
        # against rc, and iv on the eta chart, and solves nothing in eta.
        calls = []
        solve, certify, spans, in_eta = (harness.solve_space, harness.certify_space,
                                         harness.spans_kernel, harness.solve_in_eta)
        monkeypatch.setattr(harness, "solve_space", lambda w, c, space="anon", chart="lyndon":
                            calls.append(("solve", w, space)) or solve(w, c, space, chart))
        monkeypatch.setattr(harness, "certify_space", lambda w, f, base, space:
                            calls.append(("certify", w, space)) or certify(w, f, base, space))
        monkeypatch.setattr(harness, "spans_kernel", lambda w, f, elements:
                            calls.append(("spans", w, "c4")) or spans(w, f, elements))
        monkeypatch.setattr(harness, "solve_in_eta", lambda w, c, space:
                            calls.append(("eta", w, space)) or in_eta(w, c, space))
        verify_theorem_B(4)
        assert calls == [("solve", w, "barkernel") for w in (2, 3, 4)]
        del calls[:]
        verify_theorem_C(4)
        assert calls == [(kind, w, space) for w in (2, 3, 4) for kind, space in
                         (("certify", "c2"), ("certify", "c3"), ("spans", "c4"))]


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


# -- the lemma suites against their per-sample loops --------------------------
#
# The suites evaluate each identity once per Lyndon generator; these
# references evaluate it on every sample.

def _cab23_expected(psi):
    from ncds.coaction import r_series, reduced_coaction
    r = r_series(psi)
    return {
        "1,2,34": -1 * fox_derivative(psi, "x1", "right"),
        "12,3,4": -1 * fox_derivative(psi, "x0", "left"),
        "1,23,4": reduced_coaction(psi),
        "2,3,4": substitute(r, S_AT_X1),
        "1,2,3": -1 * substitute(r, S_AT_MINUS_X0),
    }


def _cabling34_expected(eta):
    from ncds.coaction import reduced_coaction
    dr1 = fox_derivative(eta, "x1", "right")
    return {
        "1,2,34": reduced_coaction(eta),
        "2,3,4": -1 * substitute(dr1, AT_X1_ZERO),
        "12,3,4": -1 * substitute(dr1, AT_SUM_ZERO),
        "1,2,3": Series.zero(eta.alphabet, eta.max_weight),
        "1,23,4": -1 * dr1,
    }


PI_SUITES = {
    "cab23": (lemma_cab23_failures, "23", 2, True, _cab23_expected),
    "cabling34": (lemma_cabling34_failures, "34", 1, False, _cabling34_expected),
}


def _reference_pi_failures(label, max_weight, samples, seed):
    _, flavor, first_weight, skew, expected = PI_SUITES[label]
    rng = random.Random(seed)
    failures = []
    for w in range(first_weight, max_weight + 1):
        for i in range(samples):
            psi = random_lie(w, rng, skew=skew)
            for name, want in expected(psi).items():
                if braid.pi_coface(psi, name, flavor).module_series() != want:
                    failures.append((label, w, i, name))
    return failures


def _reference_dihedral_failures(max_weight, samples, seed):
    # alpha^sigma by relabelling the expanded defect, not its legs
    rng = random.Random(seed)
    failures = []
    for w in range(2, max_weight + 1):
        for i in range(samples):
            alpha = braid.defect(random_lie(w, rng, skew=True))
            if braid.permute_strands(alpha, braid.SIGMA) != alpha:
                failures.append(("sigma", w, i))
            if braid.permute_strands(alpha, braid.TAU) != -alpha:
                failures.append(("tau", w, i))
    return failures


def _reference_polylogs_failures(max_weight, samples, seed):
    rng = random.Random(seed)
    failures = []
    for w in range(2, max_weight + 1):
        for i in range(samples):
            psi = random_lie(w, rng)
            for a, b in index_pairs(w):
                byx = bar_double(a, b, ("y", "x"))
                if pair(harness.pentagon_functional(byx, ((1, "543"),)), psi):
                    failures.append(("543", w, i, a, b))
                l_ab = pair(bar_single(a + b, "z"), psi)
                if pair(harness.pentagon_functional(byx, ((1, "215"),)), psi) != l_ab:
                    failures.append(("215", w, i, a, b))
                if not (set(a) <= {1} and set(b) <= {1}):
                    if pair(harness.pentagon_functional(byx, ((1, "432"),)), psi):
                        failures.append(("432", w, i, a, b))
                bxy = bar_double(a, b, ("x", "y"))
                if pair(harness.pentagon_functional(bxy, PHI_LEGS), psi) != l_ab:
                    failures.append(("451+123 double", w, i, a, b))
            for a in harness._compositions(w):
                got = pair(harness.pentagon_functional(bar_single(a, "xy"), PHI_LEGS), psi)
                if got != pair(bar_single(a, "z"), psi):
                    failures.append(("451+123 single", w, i, a))
    return failures


def _reference_stuffle_failures(max_weight, samples, seed):
    from ncds.dshuffle import sh_le, sigma_compose
    rng = random.Random(seed)
    failures = []
    for w in range(2, max_weight + 1):
        for i in range(samples):
            psi = random_lie(w, rng)
            for a, b in index_pairs(w):
                total = 0
                for s in sh_le(len(a), len(b)):
                    (first, second), tag = sigma_compose(s, a, b)
                    if tag == "xy":
                        bar = bar_single(first, "xy")
                    elif tag == "x,y":
                        bar = bar_double(first, second, ("x", "y"))
                    else:
                        bar = bar_double(first, second, ("y", "x"))
                    total += pair(harness.pentagon_functional(bar, PHI_LEGS), psi)
                if total:
                    failures.append((w, i, a, b))
    return failures


class TestLemmaSuitesMatchPerSampleLoops:
    @pytest.mark.parametrize("label", sorted(PI_SUITES))
    def test_pi_suites(self, monkeypatch, label):
        suite, flavor = PI_SUITES[label][:2]
        for seed in (0, 1):
            assert suite(5, 10, seed) == _reference_pi_failures(label, 5, 10, seed) == []
        # a wrong pi letter image: x -> 2 (1 (x) x1) instead of 1 (x) x1
        names, table, images = braid._FLAVORS[flavor]
        letter = next(n for n, image in images.items() if image == ("right", b"\x01", 1))
        monkeypatch.setitem(braid._FLAVORS, flavor,
                            (names, table, dict(images, **{letter: ("right", b"\x01", 2)})))
        for seed in (0, 1):
            got = suite(5, 10, seed)
            assert got and got == _reference_pi_failures(label, 5, 10, seed)

    @pytest.mark.parametrize("label", sorted(PI_SUITES))
    def test_pi_suites_catch_an_expected_side_fault(self, monkeypatch, label):
        # mu without the contraction of each word's first two letters
        import ncds.coaction
        original = ncds.coaction.reduced_coaction

        def dropped(f):
            lost = {}
            for w, c in f.terms.items():
                if len(w) > 1 and w[0] == w[1]:
                    _iadd(lost, w[1:], c)
            return original(f) - Series(f.alphabet, f.max_weight, lost)
        monkeypatch.setattr(ncds.coaction, "reduced_coaction", dropped)
        suite = PI_SUITES[label][0]
        for seed in (0, 1):
            got = suite(5, 10, seed)
            assert got and got == _reference_pi_failures(label, 5, 10, seed)

    def test_dihedral_suite(self, monkeypatch):
        for seed in (0, 1):
            assert lemma_dihedral_failures(6, 3, seed) == \
                _reference_dihedral_failures(6, 3, seed) == []
        # a non-skew psi: the generators ignore skew, in the suite and in the
        # reference's samples alike
        generators = harness._lie_generators
        with monkeypatch.context() as mp:
            mp.setattr(harness, "_lie_generators",
                       lambda w, skew=False: generators(w))
            for seed in (0, 1):
                got = lemma_dihedral_failures(6, 3, seed)
                assert got and got == _reference_dihedral_failures(6, 3, seed)
        # one leg's sign flipped
        (sign, leg), *rest = braid.ALPHA_LEGS
        monkeypatch.setattr(braid, "ALPHA_LEGS", ((-sign, leg), *rest))
        for seed in (0, 1):
            got = lemma_dihedral_failures(6, 3, seed)
            assert got and got == _reference_dihedral_failures(6, 3, seed)

    def test_pentagon_suites(self, monkeypatch):
        suites = ((lemma_polylogs_failures, _reference_polylogs_failures),
                  (stuffle_identity_failures, _reference_stuffle_failures))
        for suite, reference in suites:
            for seed in (0, 1, 2):
                assert suite(5, 2, seed) == reference(5, 2, seed) == []
        # a wrong functional: the psi_451 + psi_123 pullback gains x0^(w-1) x1
        original = harness.pentagon_functional

        def faulty(bar, legs):
            f = original(bar, legs)
            if legs != PHI_LEGS:
                return f
            return f + Series(f.alphabet, f.max_weight,
                              {bytes(f.max_weight - 1) + b"\x01": 1})
        monkeypatch.setattr(harness, "pentagon_functional", faulty)
        for suite, reference in suites:
            for seed in (0, 1, 2):
                got = suite(5, 2, seed)
                assert got and got == reference(5, 2, seed)


@pytest.mark.parametrize("samples", [10, 100])
def test_pi_suite_cost_is_per_generator(monkeypatch, samples):
    # five cofaces on each of the 21 skew generators of weights 2..6, however
    # many samples are drawn
    calls = []
    pi_coface = braid.pi_coface

    def counted(*args):
        calls.append(args)
        return pi_coface(*args)
    monkeypatch.setattr(braid, "pi_coface", counted)
    assert sum(len(lyndon_basis(w).elements) for w in range(2, 7)) == 21
    assert lemma_cab23_failures(6, samples, 3) == []
    assert len(calls) == 5 * 21


def test_random_lie_series_keeps_its_samples():
    # against the sum of scaled Lyndon elements it replaced, drawing alike
    for skew in (False, True):
        for w in range(1, 8):
            rng, old_rng = random.Random(w), random.Random(w)
            old = Series.zero(two_letter_alphabet(), w)
            for _w, _tree, elt in lyndon_basis(w).elements:
                c = old_rng.randint(-3, 3)
                if c:
                    old = old + elt.scale(c)
            if skew:
                old = old - letter_swap(old)
            assert random_lie_series(w, rng, skew) == old, (w, skew)
            assert rng.random() == old_rng.random()


class TestPaperPropositions:
    def test_all_ones_alpha_vanishing_for_skew(self, rng):
        # for skew Lie psi with no linear terms, the all-ones pairings of the
        # pentagon defect vanish even without the double-shuffle hypothesis
        from ncds.harness import pentagon_functional, _all_ones
        for w in (4, 5, 6):
            psi = random_lie(w, rng, skew=True)
            for k in range(1, w):
                bar = bar_double((1,) * k, (1,) * (w - k), ("y", "x"))
                assert pair(pentagon_functional(bar, ALPHA_LEGS), psi) == 0

    def test_alpha_pairings_vanish_on_skew_dmr(self):
        # theorem: for skew dmr_0 elements all y,x pairings of alpha vanish,
        # all-ones pairs included
        from ncds.harness import pentagon_functional
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
        from ncds.harness import pentagon_functional
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


# edits of a stored series document against the format rules: each is
# rejected by the reference parser, so a cache hit must reject it too
MALFORMED_SERIES = {
    "letter_outside_alphabet": lambda s: s["terms"][0].update(
        word="2" + s["terms"][0]["word"][1:]),
    "word_too_heavy": lambda s: s["terms"][0].update(word="0" * (s["maxWeight"] + 1)),
    "duplicate_word": lambda s: s["terms"].append(dict(s["terms"][0])),
    "zero_den": lambda s: s["terms"][0].update(den="0"),
    "num_not_integer": lambda s: s["terms"][0].update(num="1/2"),
    "num_padded": lambda s: s["terms"][0].update(num=" 1"),
    "num_underscore": lambda s: s["terms"][0].update(num="1_0"),
    "bool_max_weight": lambda s: s.update(maxWeight=True),
}


def first_series(doc):
    """A space document's first basis entry, or the slot of that pair which
    has terms."""
    entry = doc["basis"][0]
    if "a1" not in entry:
        return entry
    return entry["a1"] if entry["a1"]["terms"] else entry["a2"]


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

    def test_spaces_negative_lambda_either_spelling(self, capsys):
        # argparse reads "-1/3" as an option unless main glues it to --lambda
        outs = []
        for argv in (("--lambda", "-1/3"), ("--lambda=-1/3",)):
            assert self.run("spaces", "--set", "rc", "--weight", "2", *argv) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["offset"]["terms"][0]["num"] == "-1"

    def test_spaces_lambda_inconsistent(self, capsys):
        assert self.run("spaces", "--set", "rc", "--weight", "3",
                        "--lambda", "1") == 2

    @pytest.mark.parametrize("argv", [
        ("spaces", "--set", "rc", "--weight", "2", "--lambda", "1_0/3"),
        ("spaces", "--set", "rc", "--weight", "2", "--lambda", "1/+3"),
        ("spaces", "--set", "rc", "--weight", "2", "--lambda", " 1/3"),
        ("spaces", "--set", "rc", "--weight", "2", "--lambda", "\u0661/3"),
        ("spaces", "--set", "rc", "--weight", "2", "--lambda", "-1_0/3"),
        ("spaces", "--set", "rc", "--weight", "2", "--lambda=-1_0/3"),
        ("spaces", "--set", "rc0", "--weight", "\u0665"),
        ("spaces", "--set", "rc0", "--weight", "1_0"),
        ("spaces", "--set", "rc0", "--weight", " 5"),
        ("spaces", "--set", "rc0", "--weight", "+5"),
        ("verify", "--theorem", "A", "--max-weight", "\u0665"),
        ("conjecture", "--max-weight", "+5"),
    ], ids=["lambda_underscore", "lambda_plus", "lambda_padded", "lambda_arabic_indic",
            "lambda_negative_spaced", "lambda_negative_glued",
            "weight_arabic_indic", "weight_underscore", "weight_padded", "weight_plus",
            "verify_arabic_indic", "conjecture_plus"])
    def test_loose_cli_integer_exits_2(self, capsys, argv):
        # int() reads each of these; a command-line integer follows the
        # document rule, an optional "-" followed by ASCII digits
        try:
            code = self.run(*argv)
        except SystemExit as exc:  # argparse rejects a bad --weight itself
            code = exc.code
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err

    def test_spaces_lambda_zero_denominator(self, capsys):
        assert self.run("spaces", "--set", "rc", "--weight", "3",
                        "--lambda", "1/0") == 2
        err = capsys.readouterr().err
        assert err.startswith("ncds: ") and "Traceback" not in err

    # a ValueError from inside the program is a crash, not bad input
    @pytest.mark.parametrize("exc", [KeyError, RuntimeError, ValueError])
    def test_internal_error_exits_3(self, monkeypatch, capsys, exc):
        from ncds import harness

        def broken(max_weight):
            raise exc("broken verifier")
        monkeypatch.setitem(harness.VERIFIERS, "A", broken)
        assert self.run("verify", "--theorem", "A", "--max-weight", "3") == 3
        assert "Traceback" in capsys.readouterr().err

    def test_import_loads_no_computing_module(self):
        # the commands load what they run; the command line itself needs
        # only the disk cache
        loaded = self.loaded_by("import ncds.cli")
        assert {m for m in loaded if m.split(".")[0] == "ncds"} == {
            "ncds", "ncds.cli", "ncds.cache"}
        assert "fractions" not in loaded

    @pytest.mark.parametrize("argv", [
        ("verify", "--theorem", "A", "--max-weight", "0"),
        ("verify", "--theorem", "A", "--max-weight", "1"),
        ("verify", "--theorem", "A", "--max-weight", "-3"),
        ("verify", "--theorem", "D", "--max-weight", "2"),
        ("verify", "--theorem", "E", "--max-weight", "0"),
        ("conjecture", "--max-weight", "0"),
        ("conjecture", "--max-weight", "2"),
    ])
    def test_ceiling_below_first_weight_is_input_error(self, capsys, argv):
        # a ceiling that checks no weight neither passes nor falls back to
        # the default ceiling
        assert self.run(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ncds: --max-weight") and "Traceback" not in captured.err

    def test_lowest_ceiling_runs(self, capsys):
        assert self.run("verify", "--theorem", "D", "--max-weight", "3") == 0
        assert [e["w"] for e in json.loads(capsys.readouterr().out)["weights"]] == [3]
        assert self.run("conjecture", "--max-weight", "3") == 0

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
        # pair keeps.  dmr and rc stdout for psi3, [x0, x1] and the halved
        # Lyndon element of 011, whose residual terms have den "2"
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
        {"alphabet": ["x0", "x1"], "maxWeight": 3,
         "terms": [{"word": "0\u0661", "num": "1", "den": "1"}]},
    ], ids=["zero_den", "digit_outside_alphabet", "top_level_array",
            "duplicate_word", "term_not_object", "missing_terms",
            "non_unit_weights", "negative_max_weight", "word_not_digits",
            "num_not_integer", "duplicate_letter", "word_above_max_weight",
            "word_non_ascii_digit"])
    def test_malformed_series_is_input_error(self, tmp_path, capsys, data):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(data))
        assert self.run("residual", "--check", "rc", "--in", str(f)) == 2
        err = capsys.readouterr().err
        assert err.startswith("ncds: ") and "Traceback" not in err

    @pytest.mark.parametrize("num", ["1_0", " 7 ", "+3", "\u0663"],
                             ids=["underscore", "padded", "plus", "arabic_indic"])
    def test_loose_integer_spelling_is_input_error(self, tmp_path, capsys, num):
        # int() reads each of these, but a payload integer is a JSON int or
        # an optional "-" followed by ASCII digits
        f = tmp_path / "bad.json"
        f.write_text(json.dumps({"alphabet": ["x0", "x1"], "maxWeight": 2, "terms": [
            {"word": "01", "num": num, "den": "1"},
            {"word": "10", "num": "-1", "den": "1"}]}))
        assert self.run("residual", "--check", "rc", "--in", str(f)) == 2
        err = capsys.readouterr().err
        assert "'num' must be an integer" in err and "Traceback" not in err

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

    def test_dmr_residual_past_ten_y_letters_is_input_error(self, tmp_path, capsys):
        # y11 would be written "10", the same payload key as y2 y1: the Lyndon
        # element of x0^10 x1 x1 (Lie, maxWeight 12) would give the keys
        # ('0', '10') and ('10', '8')
        from ncds.lie import lyndon_basis
        word = bytes([0] * 10 + [1, 1])
        psi = next(s for w, _, s in lyndon_basis(12).elements if w == word)
        f = tmp_path / "w12.json"
        f.write_text(json.dumps(series_to_json(psi)))
        assert self.run("residual", "--check", "dmr", "--in", str(f)) == 2
        err = capsys.readouterr().err
        assert "maxWeight <= 10, got 12" in err and "Traceback" not in err

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
        from ncds.cache import source_hash
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

    @pytest.mark.parametrize("edit", [
        {"dimension": 2}, {"dimension": 0}, {"weight": 4}, {"space": "rc0"},
        {"basis": {}}], ids=["dim2", "dim0", "weight", "space", "basis_object"])
    def test_edited_entry_with_its_crc_is_recomputed(self, tmp_path, monkeypatch,
                                                     capsys, edit):
        # the hit check reads the space, the weight and the dimension too,
        # which the space's own parser does not
        from ncds.cache import _entry_crc
        monkeypatch.setenv("NCDS_CACHE_DIR", str(tmp_path))
        assert self.run("spaces", "--set", "dmr0", "--weight", "3") == 0
        good = capsys.readouterr().out
        (path,) = tmp_path.iterdir()
        bad = dict(json.loads(good), **edit)
        path.write_text(json.dumps(dict(bad, crc32=_entry_crc(bad))))
        assert self.run("spaces", "--set", "dmr0", "--weight", "3") == 0
        assert capsys.readouterr().out == good
        assert json.loads(path.read_text())["crc32"] == _entry_crc(json.loads(good))

    def test_cache_round_trip_pair_basis(self, tmp_path, monkeypatch, capsys):
        # krv2 bases serialize as tangential pairs and reload identically
        monkeypatch.setenv("NCDS_CACHE_DIR", str(tmp_path / "cache"))
        assert self.run("spaces", "--set", "krv2", "--weight", "3") == 0
        first = capsys.readouterr().out
        assert self.run("spaces", "--set", "krv2", "--weight", "3") == 0
        second = capsys.readouterr().out
        assert first == second
        assert json.loads(first)["basis"][0].keys() == {"a1", "a2"}

    @staticmethod
    def loaded_by(code):
        """The modules that code loads in a fresh interpreter, beyond those
        loaded at start-up."""
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; before = set(sys.modules)\n" + code
             + "\nprint(' '.join(sorted(set(sys.modules) - before)))"],
            capture_output=True, text=True, check=True, env=src_env())
        return set(proc.stdout.split())

    def test_warm_krv2_loads_no_computing_module(self, tmp_path, monkeypatch, capsys):
        # a cache hit checks the stored krv2 document (tangential pairs) and
        # prints it without the series algebra, fractions, the solver or
        # dataclasses (which loads inspect, ast, dis and tokenize); only a
        # miss writes, so tempfile stays unloaded too
        monkeypatch.setenv("NCDS_CACHE_DIR", str(tmp_path / "cache"))
        assert self.run("spaces", "--set", "krv2", "--weight", "3") == 0
        cold = capsys.readouterr().out
        out = tmp_path / "warm.json"
        loaded = self.loaded_by(
            "from ncds.cli import main\n"
            "assert main(['spaces', '--set', 'krv2', '--weight', '3', '--out', %r]) == 0"
            % str(out))
        assert out.read_text() == cold
        assert {m for m in loaded if m.split(".")[0] == "ncds"} == {
            "ncds", "ncds.cli", "ncds.cache", "ncds.jsonformat"}
        assert not loaded & {"fractions", "tempfile", "dataclasses"}
        assert "dataclasses" not in self.loaded_by("import ncds.harness")

    @pytest.mark.parametrize("check,unloaded", [
        ("dmr", ("ncds.kv", "ncds.coaction")),
        ("rc", ("ncds.kv", "ncds.dshuffle"))])
    def test_residual_loads_only_its_check(self, tmp_path, check, unloaded):
        psi = tmp_path / "psi.json"
        b = lyndon_basis(3).series()
        psi.write_text(json.dumps(series_to_json(b[0] - b[1])))
        loaded = self.loaded_by(
            "from ncds.cli import main\n"
            "assert main(['residual', '--check', %r, '--in', %r, '--out', %r]) == 0"
            % (check, str(psi), str(tmp_path / "out.json")))
        assert not loaded & set(unloaded)

    def test_lambda_space_is_never_cached(self, tmp_path, monkeypatch, capsys):
        # rc at a given lambda is computed on every request: no entry is
        # written, and the output is the uncached one
        argv = ("spaces", "--set", "rc", "--weight", "2", "--lambda", "3/2")
        assert self.run(*argv) == 0
        uncached = capsys.readouterr().out
        cache = tmp_path / "cache"
        monkeypatch.setenv("NCDS_CACHE_DIR", str(cache))
        for _ in range(2):
            assert self.run(*argv) == 0
            assert capsys.readouterr().out == uncached
        assert not cache.exists() or not list(cache.iterdir())
        assert "offset" in json.loads(uncached)

    @pytest.mark.parametrize("name", ["rc", "rc0", "dmr0", "krv2", "krv1skew", "conj2"])
    def test_written_entries_pass_the_check(self, tmp_path, monkeypatch, capsys, name):
        # every entry the cache writes passes the hit check and parses back,
        # through the reference parser, to the computed space
        from ncds.cache import _entry_crc
        from ncds.jsonformat import check_space
        monkeypatch.setenv("NCDS_CACHE_DIR", str(tmp_path))
        for w in range(2, 8):
            assert self.run("spaces", "--set", name, "--weight", str(w)) == 0
            out = capsys.readouterr().out
            (path,) = tmp_path.glob("%s-w%d-*.json" % (name, w))
            stored = json.loads(path.read_text())
            assert stored.pop("crc32") == _entry_crc(stored)
            check_space(stored)
            assert space_from_json(stored) == space(name, w)
            assert json.loads(out) == stored

    @pytest.mark.parametrize("name,weight,mutation", [
        (name, weight, mutation)
        for name, weight in (("rc0", 5), ("krv2", 5))
        for mutation in sorted(MALFORMED_SERIES) + ["entry_not_object", "entry_string_a1"]
    ] + [("krv2", 5, "pair_alphabets_differ")])
    def test_malformed_entry_is_recomputed(self, tmp_path, monkeypatch, capsys,
                                           name, weight, mutation):
        # an entry edited against the format rules, its CRC recomputed, is
        # rejected on a hit (recomputed and rewritten) as by the reference
        # parser
        from ncds.cache import _entry_crc
        argv = ("spaces", "--set", name, "--weight", str(weight))
        monkeypatch.setenv("NCDS_CACHE_DIR", str(tmp_path))
        assert self.run(*argv) == 0
        good = capsys.readouterr().out
        (path,) = tmp_path.iterdir()
        doc = json.loads(path.read_text())
        doc.pop("crc32")
        bad = copy.deepcopy(doc)
        if mutation == "entry_not_object":
            bad["basis"][0] = []
        elif mutation == "entry_string_a1":
            bad["basis"][0] = "a1"
        elif mutation == "pair_alphabets_differ":
            bad["basis"][0]["a2"]["alphabet"] = ["y0", "y1"]
        else:
            MALFORMED_SERIES[mutation](first_series(bad))
        with pytest.raises((KeyError, TypeError, ValueError)):
            space_from_json(bad)
        path.write_text(json.dumps(dict(bad, crc32=_entry_crc(bad))))
        assert self.run(*argv) == 0
        assert capsys.readouterr().out == good
        stored = json.loads(path.read_text())
        stored.pop("crc32")
        assert stored == doc

    @pytest.mark.parametrize("name", ["rc0", "dmr0", "krv2", "krv1skew"])
    def test_cold_space_loads_no_bar_module(self, tmp_path, monkeypatch, name):
        # a space computed against a fresh cache loads only the modules that
        # compute it: not the theorem checks, the braid algebra or bar words
        cache = tmp_path / "cache"
        monkeypatch.setenv("NCDS_CACHE_DIR", str(cache))
        loaded = self.loaded_by(
            "from ncds.cli import main\n"
            "assert main(['spaces', '--set', %r, '--weight', '3', '--out', %r]) == 0"
            % (name, str(tmp_path / "out.json")))
        assert len(list(cache.iterdir())) == 1
        for module in ("harness", "braid", "barwords"):
            assert "ncds." + module not in loaded

    def test_failed_cache_write_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        # a disk that fills up during the write is an OSError: exit 2, and
        # the cache directory holds no temporary file afterwards
        import ncds.cache

        def disk_full(*args, **kwargs):
            raise OSError(28, "No space left on device")
        monkeypatch.setenv("NCDS_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(ncds.cache.json, "dump", disk_full)
        assert self.run("spaces", "--set", "dmr0", "--weight", "3") == 2
        assert "No space left on device" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

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

