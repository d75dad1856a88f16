"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Everything is exact rational arithmetic; tolerances are zero everywhere.
Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import itertools
import json
import math
import pathlib
import time
from fractions import Fraction

from ncds.barwords import bar_double, bar_single, integrable, pair
from ncds.braid import chord_alphabet, insert_triple
from ncds.cli import space
from ncds.coaction import _rc_residual_linear, rc_residual, rc_space
from ncds.harness import (_compositions, conjecture_scan, lemma_cab23_failures,
                          lemma_cabling34_failures, lemma_dihedral_failures,
                          lemma_polylogs_failures, random_lie_series,
                          stuffle_identity_failures, verify_theorem_A,
                          verify_theorem_B, verify_theorem_C, verify_theorem_D,
                          verify_theorem_E)
from ncds.kv import (divergence, hamiltonian, nc_krv2_fit, necklace_bracket,
                     same_derivation, tangential_pair_of, tder_bracket,
                     TangentialDerivation)
from ncds.lie import (SolutionSpace, lyndon_basis, series_spans_equal,
                      skew_constraint)
from ncds.series import (CyclicSeries, Series, cyclic_project,
                         one_letter_alphabet, symmetrize)

from conftest import (X, assemble_rows, clear_space_memos, commutator,
                      reference_kernel, words_space, x_series)

G = chord_alphabet()

# Golden reports of A-E at the default ceilings and of the conjecture scan at
# 7, seed 0, written at the seed commit: the oracle every refactor keeps.
GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "golden" \
    / "ceilings.json"
# The `ncds spaces` output of every named space the benchmark requests.
SPACES_GOLDEN = GOLDEN.parent / "spaces_cli.json"


def matches_golden(name, rep):
    """The report's JSON without `version`, byte for byte against golden."""
    out = rep.to_json()
    del out["version"]
    golden = json.loads(GOLDEN.read_text())[name]
    return json.dumps(out, sort_keys=True) == json.dumps(golden, sort_keys=True)


def report(number, description, ok, t0):
    line = "%s criterion %d: %s (%.1fs)" % ("PASS" if ok else "FAIL",
                                            number, description, time.time() - t0)
    print(line)
    assert ok, line


def psi3(mw=3):
    b = lyndon_basis(3).series()
    return (b[0] - b[1]).truncated(mw)


def test_criterion_01_weight2_lemma():
    t0 = time.time()
    rc = rc_space(2)
    rc0 = rc_space(2, 0)
    com = x_series({"01": 1, "10": -1}, 2)
    eq, _ = series_spans_equal(rc.basis, [com])
    ok = rc.dimension == 1 and eq and rc0.dimension == 0
    report(1, "rc(2) = span{[x0,x1]}, rc0(2) = 0", ok, t0)


def test_criterion_02_weight3_generator():
    t0 = time.time()
    ok = rc_residual(psi3()).is_zero
    lyndon_route = rc_space(3, 0)
    brute = words_space(3, [skew_constraint, _rc_residual_linear, commutator])
    eq, _ = series_spans_equal(lyndon_route.basis, brute.basis)
    ok = ok and lyndon_route.dimension == 1 and brute.dimension == 1 and eq
    report(2, "rc_residual(psi3) = 0 and rc0(3) brute-force confirmed", ok, t0)


def test_criterion_03_theorem_A():
    t0 = time.time()
    rep = verify_theorem_A(8)
    asserted = [e for e in rep.weights if e.w >= 3]
    ok = all(e.status == "pass" for e in asserted) and len(asserted) == 6
    ok = ok and matches_golden("A", rep)
    report(3, "theorem A subspace equality, weights 3..8", ok, t0)


def test_criterion_04_theorem_B():
    t0 = time.time()
    rep = verify_theorem_B(7)
    asserted = [e for e in rep.weights if e.w >= 3]
    ok = all(e.status == "pass" for e in asserted) and len(asserted) == 5
    ok = ok and matches_golden("B", rep)
    report(4, "theorem B bar-pairing kernel equals dmr0, weights 3..7", ok, t0)


def test_criterion_05_theorem_C():
    t0 = time.time()
    rep = verify_theorem_C(8)
    asserted = [e for e in rep.weights if e.w >= 3]
    ok = all(e.status == "pass" for e in asserted) and len(asserted) == 6
    ok = ok and matches_golden("C", rep)
    report(5, "theorem C four-way equality, weights 3..8", ok, t0)


def test_criterion_06_theorem_D():
    t0 = time.time()
    rep = verify_theorem_D(8)
    ok = rep.ok and len(rep.weights) == 6
    brackets = sum(e.dims.get("brackets", 0) for e in rep.weights)
    ok = ok and brackets >= 1  # the weight-8 {psi3, psi5} bracket is exercised
    ok = ok and matches_golden("D", rep)
    report(6, "theorem D: even coefficients, B-membership, Ihara closure <= 8",
           ok, t0)


def test_criterion_07_theorem_E():
    t0 = time.time()
    rep = verify_theorem_E(8)
    ok = rep.ok and len(rep.weights) == 6
    ok = ok and all(e.dims.get("nonadmissible1111", True) for e in rep.weights)
    ok = ok and any("nonadmissible1111" in e.dims for e in rep.weights)
    ok = ok and matches_golden("E", rep)
    # the k + l = 2 instance lives below the theorem range; check it directly
    import math
    from ncds.dshuffle import dmr_space
    from ncds.harness import nonadmissible_sum_value
    for psi in dmr_space(2).basis:
        got = nonadmissible_sum_value(psi, 1, 1)
        ok = ok and got == psi.coeff(b"\x00\x01")
    report(7, "theorem E pipeline + krv2 membership 3..8 + all-ones formula",
           ok, t0)


def test_criterion_08_lemma_suites():
    t0 = time.time()
    failures = []
    failures += lemma_cab23_failures(max_weight=6, samples=100, seed=20240901)
    failures += lemma_cabling34_failures(max_weight=6, samples=100, seed=20240902)
    failures += lemma_dihedral_failures(max_weight=6, samples=3, seed=20240903)
    failures += lemma_polylogs_failures(max_weight=6, samples=2, seed=20240904)
    failures += stuffle_identity_failures(max_weight=6, samples=2, seed=20240905)
    report(8, "cab_23 / cabling34 / dihedral / polylog compilation / stuffle",
           not failures, t0)


def test_criterion_09_bar_words():
    t0 = time.time()
    ok = True
    # integrability of every generated l-word up to weight 7
    for w in range(1, 8):
        for a in _compositions(w):
            for var in ("x", "y", "xy"):
                ok = ok and integrable(bar_single(a, var))
        for wa in range(1, w):
            for a in _compositions(wa):
                for b in _compositions(w - wa):
                    ok = ok and integrable(bar_double(a, b, ("x", "y")))
                    ok = ok and integrable(bar_double(a, b, ("y", "x")))
    # orientation anchor 1: the coefficient formula for l_a
    import random
    rng = random.Random(5)
    for w in (3, 5):
        phi = random_lie_series(w, rng) + x_series({"0" * w: 3}, w)
        for a in _compositions(w):
            word = []
            for a_i in reversed(a):
                word += [0] * (a_i - 1) + [1]
            ok = ok and pair(bar_single(a, "z"), phi) == \
                ((-1) ** len(a)) * phi.coeff(bytes(word))
    # orientation anchor 2: l^{y,x}_{(1..1)_k,(1)}(psi_432)
    for w in (3, 4, 5, 6):
        psi = random_lie_series(w, rng)
        k = w - 1
        got = pair(bar_double((1,) * k, (1,), ("y", "x")),
                   insert_triple(psi, 4, 3, 2))
        ok = ok and got == ((-1) ** (k + 1)) * psi.coeff(b"\x00" * k + b"\x01")
    # orientation anchor 3: the double dilogarithm bar word, bit exact
    dilog = bar_double((1,), (1,), ("x", "y"))
    expected = Series(G, 2, {
        bytes((G.index("23"), G.index("34"))): 1,
        bytes((G.index("23"), G.index("24"))): -1,
        bytes((G.index("34"), G.index("24"))): 1,
        bytes((G.index("12"), G.index("24"))): 1})
    ok = ok and dilog == expected
    report(9, "bar-word integrability <= 7 and pairing-orientation anchors",
           ok, t0)


def test_criterion_10_kv_layer():
    t0 = time.time()
    ok = True
    # divergence-coaction identity on all cyclic words of weight <= 6
    from ncds.coaction import reduced_coaction
    seen = set()
    for m in range(2, 7):
        for bits in itertools.product((0, 1), repeat=m):
            w = bytes(bits)
            canon = min(w[i:] + w[:i] for i in range(m))
            if canon in seen:
                continue
            seen.add(canon)
            c = CyclicSeries(X, m, {canon: 1})
            lhs = divergence(hamiltonian(c))
            rhs = cyclic_project(reduced_coaction(symmetrize(c))).scale(
                Fraction(1, m - 1))
            ok = ok and lhs == rhs
    # nc-krv2 fit with the explicit f on [x0,x1] and on rc0 bases
    com = x_series({"01": 1, "10": -1}, 2)
    residual, f = nc_krv2_fit(tangential_pair_of(com))
    s = one_letter_alphabet()
    ok = ok and residual.is_zero and f == Series(s, 3, {bytes(2): 1})
    for w in range(3, 8):
        for psi in rc_space(w, 0).basis:
            residual, _f = nc_krv2_fit(tangential_pair_of(psi))
            ok = ok and residual.is_zero
    # H-isomorphism arbiter with the shipped reading
    words = {}
    for m in range(2, 6):
        words[m] = []
        found = set()
        for bits in itertools.product((0, 1), repeat=m):
            w = bytes(bits)
            canon = min(w[i:] + w[:i] for i in range(m))
            if canon not in found:
                found.add(canon)
                words[m].append(canon)
    zero_pair = TangentialDerivation.of(Series.zero(X, 12), Series.zero(X, 12))
    for wa in range(2, 6):
        for wb in range(wa, 6):
            for a_word in words[wa]:
                for b_word in words[wb]:
                    a = CyclicSeries(X, 12, {a_word: 1})
                    b = CyclicSeries(X, 12, {b_word: 1})
                    br = necklace_bracket(a, b)
                    lhs = hamiltonian(br) if not br.is_zero else zero_pair
                    rhs = tder_bracket(hamiltonian(a), hamiltonian(b))
                    ok = ok and same_derivation(lhs, rhs)
    report(10, "KV layer: div-H identity, nc-krv2 fits, H-morphism arbiter",
           ok, t0)


def test_criterion_11_conjecture_scan_deterministic():
    t0 = time.time()
    rep1 = conjecture_scan(7)
    rep2 = conjecture_scan(7)
    bytes1 = json.dumps(rep1.to_json(), sort_keys=True).encode()
    bytes2 = json.dumps(rep2.to_json(), sort_keys=True).encode()
    ok = bytes1 == bytes2 and matches_golden("conjecture", rep1)
    ok = ok and all(e.status == "report-only" for e in rep1.weights)
    ok = ok and [e.w for e in rep1.weights] == [3, 4, 5, 6, 7]
    ok = ok and all({"krv1skew", "conj2", "equal"} <= set(e.dims)
                    for e in rep1.weights)
    report(11, "conjecture scan 3..7 report-only, byte-identical reruns", ok, t0)


def test_named_spaces_match_golden():
    # rc0, dmr0, krv2, krv1skew and conj2 at weights 3..8, byte for byte
    golden = json.loads(SPACES_GOLDEN.read_text())
    assert len(golden) == 30
    dims = {}
    for key, want in golden.items():
        name, weight = key.rsplit("-", 1)
        got = space(name, int(weight)).to_json()
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True), key
        dims[key] = got["dimension"]
    # Brown: the free Lie algebra on sigma_3, sigma_5, ... embeds in grt, and
    # Furusho: grt embeds in dmr0; a lower bound that shares no code with the
    # solver (weight 8 holds [sigma_3, sigma_5])
    for w, low in zip(range(3, 9), (1, 0, 1, 0, 1, 1)):
        assert dims["dmr0-%d" % w] >= low, w


def test_golden_space_kernels_match_full_elimination(monkeypatch):
    # every matrix the solver hands to kernel_basis (a row selection and an
    # exact check) while it builds the 30 golden spaces, solved again by
    # textbook Gauss-Jordan on all of its nonzero rows at once, each taken
    # once up to sign, a route that shares no code with ncds.linalg; rc0 is
    # rc cut by one more constraint, a second matrix wherever rc is not
    # empty (w = 3, 5, 7, 8), and krv1skew is a Lyndon solve on eta cut by
    # skew symmetry, a second matrix wherever the eta space is not empty
    # (w = 3, 5, 7, 8)
    import ncds.linalg
    from ncds.linalg import kernel_basis
    captured = []
    def capture(rows):
        captured.append(rows)
        return kernel_basis(rows)
    monkeypatch.setattr(ncds.linalg, "kernel_basis", capture)
    for key in json.loads(SPACES_GOLDEN.read_text()):
        name, weight = key.rsplit("-", 1)
        space(name, int(weight))
    assert len(captured) == 38
    for rows in captured:
        distinct = {}
        for row in rows:
            lead = next((v for v in row if v), 0)
            if lead:
                distinct[tuple(v if lead > 0 else -v for v in row)] = None
        assert kernel_basis(rows) == reference_kernel(list(distinct), len(rows[0]))


def _integer_element(b):
    # b scaled to coprime integer coefficients
    coeffs = [Fraction(c) for c in b.terms.values()]
    den = math.lcm(*(c.denominator for c in coeffs))
    return b.scale(Fraction(den, math.gcd(*(int(c * den) for c in coeffs))))


def _per_element_rows(weight, constraints, chart):
    # the rows built the direct way, without the solver's coordinate index:
    # every constraint called on every chart element, then assembled
    lyndon = lyndon_basis(weight).series()
    if isinstance(chart, SolutionSpace):
        ambient = [_integer_element(b) for b in chart.basis]
    elif chart == "lyndon":
        ambient = lyndon
    else:
        assert chart == "pairs", chart
        zero = Series.zero(X, weight)
        ambient = ([TangentialDerivation.of(s, zero) for s in lyndon]
                   + [TangentialDerivation.of(zero, s) for s in lyndon])
    values = []
    for elt in ambient:
        items = []
        for ci, con in enumerate(constraints):
            if callable(con):
                value = con(elt)
                value = value if isinstance(value, dict) else value.terms
            else:  # a family of functionals, each paired with the element
                value = {key: pair(F, elt) for key, F in con}
            items.extend(((ci, key), c) for key, c in value.items())
        values.append(items)
    return assemble_rows(values, len(ambient)) or [[0] * len(ambient)]


def test_solver_rows_match_per_element_reference(monkeypatch):
    # every matrix solve_space hands to kernel_basis while it builds the 30
    # golden spaces (rc0 is rc cut by one more constraint: 6 more solves, on
    # the rc basis as chart; krv1skew is a Lyndon solve on eta cut by skew
    # symmetry: 6 more solves, on the mapped-back eta basis as chart) and
    # theorem B to weight 7 (dmr_0 and a bar-functional family per weight;
    # the memos are emptied first, so dmr_0 is solved again) equals, up to
    # zero rows and repeats, the per-element rows; a cut of an empty space
    # builds no matrix
    import ncds.coaction, ncds.dshuffle, ncds.harness, ncds.kv, ncds.lie, ncds.linalg
    from ncds.linalg import _distinct_rows, kernel_basis
    solve_space = ncds.lie.solve_space
    calls = []

    def record(weight, constraints, space="anon", chart="lyndon"):
        # a family is one-pass: listed once, for the solver and the reference
        constraints = [c if callable(c) else list(c) for c in constraints]
        calls.append([weight, constraints, chart, None])
        return solve_space(weight, constraints, space, chart)

    def capture(rows):
        calls[-1][3] = rows
        return kernel_basis(rows)
    for module in (ncds.coaction, ncds.dshuffle, ncds.harness, ncds.kv):
        monkeypatch.setattr(module, "solve_space", record)
    monkeypatch.setattr(ncds.linalg, "kernel_basis", capture)
    for key in json.loads(SPACES_GOLDEN.read_text()):
        name, weight = key.rsplit("-", 1)
        space(name, int(weight))
    clear_space_memos()
    verify_theorem_B(7)
    assert len(calls) == 30 + 6 + 6 + 2 * 6
    for weight, constraints, chart, rows in calls:
        if isinstance(chart, SolutionSpace) and not chart.basis:
            assert rows is None
            continue
        want = _per_element_rows(weight, constraints, chart)
        assert _distinct_rows(rows) == _distinct_rows(want), (weight, chart)
