import os
import pathlib
import random
from collections import Counter
from fractions import Fraction

import pytest

from ncds.braid import CocycleElement, cocycle_mul
from ncds.coaction import rc_space
from ncds.dshuffle import dmr_space
from ncds.harness import random_lie_series
from ncds.lie import (SolutionSpace, TangentialDerivation, lie_bracket,
                      primitivity_defect, solve_space)
from ncds.series import (AT_MINUS_SUM_X1, CyclicSeries, LinearMorphism, Series,
                         abelianize, cyclic_project, fox_derivative, series_from_json,
                         substitute, two_letter_alphabet, _iadd)

X = two_letter_alphabet()
# psi -> psi(-x0-x1, x0), written out; ncds itself reaches this series as
# psi(-x0-x1, x1) with its letters swapped
AT_MINUS_SUM_X0 = LinearMorphism.by_name(X, X, {"x0": {"x0": -1, "x1": -1},
                                               "x1": {"x0": 1}})
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def src_env():
    """Environment for a child interpreter: src/ leads its PYTHONPATH, so it
    imports this checkout's ncds without an install."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def x_series(terms, max_weight):
    """Build a Series over (x0, x1) from {"0100...": coef} digit strings."""
    data = {bytes(int(ch) for ch in w): c for w, c in terms.items()}
    return Series(X, max_weight, data)


def assemble_rows(basis_values, n_cols):
    """Turn per-column constraint values into matrix rows: basis_values[j]
    is the list of (key, coeff) items of column j, and one row is produced
    per distinct key, in sorted key order."""
    rows = {}
    for j, items in enumerate(basis_values):
        for key, c in items:
            row = rows.get(key)
            if row is None:
                row = rows[key] = [0] * n_cols
            row[j] = c
    return [rows[k] for k in sorted(rows)]


# -- reference formulas --------------------------------------------------------
#
# Products with one letter written as concatenation products (Series.letter
# and conc_mul), the route the word edits in ncds.lie, ncds.kv and
# ncds.coaction replaced; tests compare the two on seeded random input.

def _letters(alphabet, mw):
    return Series.letter(alphabet, "x0", mw), Series.letter(alphabet, "x1", mw)


def _lift(a, mw):
    return Series(a.alphabet, mw, a.terms, _clean=False)


def ref_generator_images(u):
    mw = u.max_weight + 1
    x0, x1 = _letters(u.alphabet, mw)
    a1, a2 = _lift(u.a1, mw), _lift(u.a2, mw)
    return (x0 * a1 - a1 * x0, x1 * a2 - a2 * x1)


def ref_divergence(u):
    mw = u.max_weight
    x0, x1 = _letters(u.alphabet, mw)
    body = x0 * fox_derivative(_lift(u.a1, mw), "x0", "right") \
        + x1 * fox_derivative(_lift(u.a2, mw), "x1", "right")
    return cyclic_project(body)


def ref_krv1(psi):
    mw = psi.max_weight + 1
    x0, x1 = _letters(psi.alphabet, mw)
    lifted = _lift(psi, mw)
    return (lie_bracket(x1, substitute(lifted, AT_MINUS_SUM_X1))
            + lie_bracket(x0, substitute(lifted, AT_MINUS_SUM_X0)))


def ref_potential(psi):
    """h_psi from psi itself: x0 psi(-x0-x1, x0) + x1 psi(-x0-x1, x1)."""
    mw = psi.max_weight + 1
    x0, x1 = _letters(psi.alphabet, mw)
    lifted = _lift(psi, mw)
    return x0 * substitute(lifted, AT_MINUS_SUM_X0) \
        + x1 * substitute(lifted, AT_MINUS_SUM_X1)


def ref_hamiltonian_inverse(u):
    mw = u.max_weight + 1
    x0, x1 = _letters(u.alphabet, mw)
    body = x0 * _lift(u.a1, mw) + x1 * _lift(u.a2, mw)
    return CyclicSeries(u.alphabet, mw, {w: Fraction(c, len(w))
                                         for w, c in body.terms.items()})


def ref_meta_abelian(psi):
    tail = fox_derivative(psi, "x1", "left")
    _x0, x1 = _letters(psi.alphabet, psi.max_weight + 1)
    return abelianize(_lift(tail, psi.max_weight + 1) * x1)


def _ref_leibniz(images, f, mw):
    out = Series.zero(f.alphabet, mw)
    for w, c in f.terms.items():
        for i, li in enumerate(w):
            if images[li] is None:
                continue
            pre = Series(f.alphabet, mw, {w[:i]: c}, _clean=False)
            post = Series(f.alphabet, mw, {w[i + 1:]: 1}, _clean=False)
            out = out + pre * images[li].truncated(mw) * post
    return out


def ref_tder_apply(u, f):
    return _ref_leibniz(ref_generator_images(u), f, f.max_weight)


def ref_ihara_derivation(psi, f):
    mw = min(f.max_weight, psi.max_weight)
    _x0, x1 = _letters(f.alphabet, mw)
    return _ref_leibniz((None, lie_bracket(x1, psi.truncated(mw))), f, mw)


# -- reference letter maps -----------------------------------------------------
#
# Every word expanded on its own, the route the first-letter recursion of
# ncds.series._expand_terms replaced for letter maps and the pi maps alike: a
# word is the product of its letter images, and only the sum over source
# words merges.

def ref_expand_terms(terms, images):
    """A LinearMorphism's ``images`` applied to a word -> coef map."""
    out = {}
    for w, c in terms.items():
        partial = {b"": c}
        for i in w:
            partial = {pw + t: pc * tc for pw, pc in partial.items()
                       for t, tc in images[i]}
        for pw, pc in partial.items():
            _iadd(out, pw, pc)
    return out


# pi^{2,3} and pi^{3,4} on their five letters, as cocycle elements:
# (x0 (x) 1, x1 (x) 1, 1 (x) x0, 1 (x) x1, -e)
_REF_PI_LETTERS = {"23": ("12", "24", "13", "34", "23"),
                   "34": ("14", "24", "13", "23", "34")}


def ref_pi_letter(flavor, name, max_weight):
    k = _REF_PI_LETTERS[flavor].index(name)
    if k == 4:
        return CocycleElement.of(max_weight, {}, {b"": -1})
    key = (bytes((k,)), b"") if k < 2 else (b"", bytes((k - 2,)))
    return CocycleElement.of(max_weight, {key: 1}, {})


def ref_pi_fold(terms, images, max_weight):
    """Sum over words of c times the cocycle_mul product of the letter
    images (CocycleElements), one word at a time."""
    out = CocycleElement.of(max_weight)
    for w, c in terms.items():
        acc = CocycleElement.of(max_weight, {(b"", b""): 1}, {})
        for i in w:
            acc = cocycle_mul(acc, images[i])
        out = out + acc.scale(c)
    return out


def ref_pi_decompose(e, flavor):
    mw = e.max_weight
    return ref_pi_fold(e.terms, [ref_pi_letter(flavor, n, mw)
                                 for n in e.alphabet.letters], mw)


def ref_pi_coface(psi, images, flavor):
    """images: the chord sums ("13 23") of the coface images of x0 and x1,
    each chord a pi letter."""
    mw = psi.max_weight
    sums = []
    for names in images:
        total = CocycleElement.of(mw)
        for n in names.split():
            total = total + ref_pi_letter(flavor, n, mw)
        sums.append(total)
    return ref_pi_fold(psi.terms, sums, mw)


def random_lie(weight, rng, skew=False, max_weight=None):
    """The seeded generator the lemma suites use, so tests draw the same
    series; max_weight (at least the weight) only deepens its truncation."""
    psi = random_lie_series(weight, rng, skew)
    return psi if max_weight is None else Series(X, max_weight, psi.terms)


def clear_space_memos():
    """Empty the process-wide rc and dmr_0 memos."""
    rc_space.cache_clear()
    dmr_space.cache_clear()


@pytest.fixture(autouse=True)
def fresh_space_memos():
    # a space solved while a test injected a fault (or counted solves) must
    # not reach a later test through the memos
    clear_space_memos()
    yield
    clear_space_memos()


def count_solves(monkeypatch, *modules):
    """A Counter of (space, weight) -> solve_space calls made through the
    given modules' solve_space from now on."""
    counts = Counter()

    def counted(weight, constraints, space="anon", chart="lyndon"):
        counts[space, weight] += 1
        return solve_space(weight, constraints, space, chart)
    for module in modules:
        monkeypatch.setattr(module, "solve_space", counted)
    return counts


@pytest.fixture
def rng():
    return random.Random(20240901)


def commutator(s):
    """The coefficient of x0 x1, the constraint that cuts rc to rc0."""
    return {"lam": s.coeff(b"\x00\x01")}


def words_space(weight, constraints, space="words"):
    """The brute-force route to a space of Lie series: the constraints with
    primitivity (the shuffle-coproduct Lie test) solved over every word of
    the weight, sharing no Lyndon coordinates with the route under test."""
    return solve_space(weight, [primitivity_defect] + constraints, space=space,
                       chart="words")


# -- reference parser of a space document ---------------------------------------
#
# A disk-cache hit serves the stored document after `jsonformat.check_space`
# alone; tests cross-check that check against this parser, which builds the
# space.

def _space_entry_from_json(data):
    if "a1" in data:
        return TangentialDerivation.of(series_from_json(data["a1"]),
                                       series_from_json(data["a2"]))
    return series_from_json(data)


def space_from_json(data):
    """Inverse of SolutionSpace.to_json; ValueError, KeyError or TypeError
    on a malformed document."""
    basis = [_space_entry_from_json(b) for b in data["basis"]]
    offset = _space_entry_from_json(data["offset"]) if "offset" in data else None
    return SolutionSpace(data["space"], data["weight"], basis, offset=offset)


# -- reference elimination -------------------------------------------------------
#
# Textbook Gauss-Jordan over Fractions, sharing no code with ncds.linalg, whose
# rref and kernel_basis both read one multimodular elimination.

def reference_rref(rows):
    """Reduced row echelon form by Gauss-Jordan over Fractions: (rows,
    pivot columns)."""
    m = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        m[r] = [v / m[r][c] for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m[:len(pivots)], pivots


def reference_kernel(rows, cols):
    """Free-column kernel basis solved one free column at a time: x_fc = 1,
    the other free columns 0, and each pivot variable from its reference
    rref row, summed over the columns solved so far (x is 0 elsewhere)."""
    red, pivots = reference_rref(rows)
    basis = []
    for fc in range(cols):
        if fc in pivots:
            continue
        x = [Fraction(0)] * cols
        x[fc] = Fraction(1)
        solved = [fc]
        for row, p in zip(red, pivots):
            x[p] = -sum(row[j] * x[j] for j in solved)
            solved.append(p)
        basis.append(tuple(x))
    return basis
