"""Theorem-level verification: the reduced-coaction / double-shuffle /
Kashiwara-Vergne comparisons, machine-checked weight by weight.

Pairings of bar words against coface images psi(x_ij, x_jk) are evaluated by
pulling the bar word back through the coface's letter images, which turns
each functional into a small two-letter series paired directly against psi;
the chord-alphabet expansion of psi is never materialized.  Every pentagon
leg is a word morphism (each chord letter goes to at most one of x0, x1, with
coefficient 1), so the theorem checks run the bar-word recursion directly on
the leg's letter target (`pulled_functional`) and never form a five-letter
word; `coface_pullback` translates an arbitrary bar series the same way.

Weight 2 is reported separately and never asserted: [x0, x1] satisfies the
double-shuffle conditions but has commutator coefficient 1, so the theorem
comparisons start at weight 3.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from . import __version__ as KERNEL_VERSION
from .barwords import _bar_xy, bar_double, bar_single, order_target, pair
from .braid import CHORD_NAMES, chord_alphabet
from .coaction import (c4_residual, frak_b_check, ihara_bracket,
                       meta_abelian, rc_space)
from .dshuffle import (dmr_space, psi_star, sh_le, sigma_compose, y_alphabet,
                       y_functional, y_word)
from .kv import (_krv1_linear, is_cyclic_invariant, krv2_space,
                 nc_krv2_fit, potential, tangential_pair_of)
from .lie import (lyndon_basis, series_span_contains, series_spans_equal,
                  series_to_json, skew_constraint, solve_space)
from .series import (AT_SUM_ZERO, AT_X1_ZERO, S_AT_MINUS_X0, S_AT_X1,
                     InputError, LinearMorphism, Series, letter_swap, substitute,
                     two_letter_alphabet, _iadd)


@dataclass
class WeightEntry:
    w: int
    status: str  # pass | fail | report-only
    dims: dict = field(default_factory=dict)
    witness: object = None

    def to_json(self):
        out = {"w": self.w, "status": self.status,
               "dims": {k: self.dims[k] for k in sorted(self.dims)}}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class CheckReport:
    check: str
    weights: list
    seed: int = 0
    version: str = KERNEL_VERSION
    elapsed: float = 0.0  # not serialized: reports must be byte-stable

    @property
    def ok(self):
        return all(e.status != "fail" for e in self.weights)

    def to_json(self):
        return {"check": self.check,
                "weights": [e.to_json() for e in self.weights],
                "seed": self.seed,
                "version": self.version}

    def summary_lines(self):
        for e in self.weights:
            dims = " ".join("%s=%s" % (k, e.dims[k]) for k in sorted(e.dims))
            yield "%s w=%d %s %s" % (self.check, e.w, e.status, dims)
        yield "%s elapsed %.3f s" % (self.check, self.elapsed)


def _witness_json(obj):
    if obj is None:
        return None
    if isinstance(obj, Series):
        return series_to_json(obj)
    if hasattr(obj, "to_json"):
        return obj.to_json()
    return str(obj)


# -- pentagon pullback functionals -------------------------------------------

# (x0 image, x1 image) of each insertion psi(x_ij, x_jk), over chord names
PENTAGON_LEGS = {
    "451": ({"45": 1}, {"23": 1, "24": 1, "34": 1}),
    "123": ({"12": 1}, {"23": 1}),
    "432": ({"34": 1}, {"23": 1}),
    "215": ({"12": 1}, {"23": 1, "24": 1, "34": 1}),
    "543": ({"45": 1}, {"34": 1}),
}

ALPHA_LEGS = ((1, "451"), (1, "123"), (-1, "432"), (-1, "215"), (-1, "543"))
PHI_LEGS = ((1, "451"), (1, "123"))


@lru_cache(maxsize=None)
def leg_target(leg):
    """The leg's pullback as a letter target over the chord alphabet: chord
    letter -> x0 (0), x1 (1) or None.  Both pullback paths rely on every leg
    being a word morphism: each letter has at most one image, with
    coefficient 1."""
    images = {}
    for x_letter, image in enumerate(PENTAGON_LEGS[leg]):
        for name, c in image.items():
            if c != 1 or name in images:
                raise ValueError("leg %s is not a word morphism" % (leg,))
            images[name] = x_letter
    return tuple(images.get(name) for name in CHORD_NAMES)


def _signed_sum(parts, max_weight):
    """Two-letter series sum of sign * terms over (sign, terms) parts."""
    out = {}
    for sign, terms in parts:
        for w, c in terms.items():
            _iadd(out, w, sign * c)
    return Series(two_letter_alphabet(), max_weight, out, _clean=False)


@lru_cache(maxsize=None)
def leg_morphism(leg):
    """The leg's pullback as a word morphism from the chord alphabet onto
    x0, x1, built from its letter target."""
    return LinearMorphism(chord_alphabet(), two_letter_alphabet(),
                          [() if t is None else ((t, 1),) for t in leg_target(leg)])


def coface_pullback(bar, leg):
    """Two-letter series F with <bar, psi(images)> = <F, psi>: each word is
    translated letter by letter and dropped if a letter has no image."""
    return substitute(bar, leg_morphism(leg))


def pentagon_functional(bar, legs):
    """Sum of signed coface pullbacks of one bar word."""
    return _signed_sum(((sign, coface_pullback(bar, leg).terms)
                        for sign, leg in legs), bar.max_weight)


def pulled_functional(pairs, order, legs):
    """Sum of s * pentagon_functional(bar_double(a, b, order), legs) over
    (s, a, b) in pairs, built in two-letter coordinates: the bar-word
    recursion runs on each leg's letter target, so no five-letter word is
    formed.  All pairs share one weight."""
    targets = [(sign, order_target(order, leg_target(leg))) for sign, leg in legs]
    parts = [(s * sign, _bar_xy(a, b, target))
             for s, a, b in pairs for sign, target in targets]
    _s, a, b = pairs[0]
    return _signed_sum(parts, sum(a) + sum(b))


def _compositions(total):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


def index_pairs(weight):
    for wa in range(1, weight):
        for a in _compositions(wa):
            for b in _compositions(weight - wa):
                yield a, b


def _all_ones(a, b):
    return set(a) <= {1} and set(b) <= {1}


def shifted_pair_functionals(weight):
    """Functionals psi -> l^{y,x}_{a,b}(phi) - l^{y,x}_{(a,b1),(b2..)}(phi)
    on phi = psi_451 + psi_123, for dp(b) >= 2 and (a, b) not all ones."""
    out = []
    for a, b in index_pairs(weight):
        if len(b) < 2 or _all_ones(a, b):
            continue
        out.append(((a, b), pulled_functional(
            ((1, a, b), (-1, a + (b[0],), b[1:])), ("y", "x"), PHI_LEGS)))
    return out


def alpha_pair_functionals(weight, orders=("y", "x"), depth_one=False):
    """Functionals psi -> l_{a,b}(alpha(psi)) for pairs of the given weight;
    depth_one restricts to dp(b) = 1."""
    out = []
    for a, b in index_pairs(weight):
        if depth_one and len(b) != 1:
            continue
        if not depth_one and _all_ones(a, b):
            continue
        out.append(((a, b), pulled_functional(((1, a, b),), orders, ALPHA_LEGS)))
    return out


def _functional_constraint(functionals):
    """The family of (key, F) functionals as one linear constraint
    s -> {i: <F_i, s>}, keyed by the functional's position i; the words of
    s are looked up once in an index word -> [(i, F_i[word])]."""
    by_word = {}
    for i, (_key, F) in enumerate(functionals):
        for w, c in F.terms.items():
            by_word.setdefault(w, []).append((i, c))

    def constraint(s):
        out = {}
        for w, c in s.terms.items():
            for i, f in by_word.get(w, ()):
                _iadd(out, i, f * c)
        return out
    return constraint


# -- named spaces -------------------------------------------------------------

def space(name, weight, lam=None):
    """Registry behind the CLI: rc, rc0, dmr0, krv2, krv1skew, conj2."""
    if name == "rc":
        return rc_space(weight, lam)
    if name == "rc0":
        return rc_space(weight, 0)
    if name == "dmr0":
        return dmr_space(weight)
    if name == "krv2":
        return krv2_space(weight)
    if name in ("krv1skew", "conj2") and weight < 2:
        raise InputError("%s space starts at weight 2" % (name,))
    if name == "krv1skew":
        return solve_space(weight, [skew_constraint, _krv1_linear], space=name)
    if name == "conj2":
        cons = [skew_constraint, _functional_constraint(shifted_pair_functionals(weight))]
        return solve_space(weight, cons, space=name)
    raise ValueError("unknown space %r" % (name,))


# -- theorem checks -----------------------------------------------------------

def _entry_for_equality(w, name_a, space_a, name_b, space_b, report_only=False):
    equal, witness = series_spans_equal(space_a.basis, space_b.basis)
    dims = {name_a: space_a.dimension, name_b: space_b.dimension}
    if report_only:
        dims["equal"] = equal
        return WeightEntry(w, "report-only", dims)
    if equal:
        return WeightEntry(w, "pass", dims)
    return WeightEntry(w, "fail", dims, witness=_witness_json(witness))


def verify_theorem_A(max_weight, seed=0, weights=None):
    """dmr_0 with skew symmetry equals rc_0 cut by the shifted-pair bar
    functionals, weight by weight: each side is its base space cut by the
    added condition."""
    t0 = time.perf_counter()
    entries = []
    for w in (weights if weights is not None else range(2, max_weight + 1)):
        s1 = solve_space(w, [skew_constraint], space="dmr0skew", chart=dmr_space(w))
        shifted = _functional_constraint(shifted_pair_functionals(w))
        s2 = solve_space(w, [shifted], space="rc0shifted", chart=rc_space(w))
        entries.append(_entry_for_equality(w, "dmr0_skew", s1, "rc0_shifted", s2,
                                           report_only=(w == 2)))
    return CheckReport("theorem_A", entries, seed, elapsed=time.perf_counter() - t0)


def verify_theorem_B(max_weight, seed=0, weights=None):
    """dmr_0 equals the kernel of the bar pairings against the pentagon
    defect over non-all-ones index pairs."""
    t0 = time.perf_counter()
    entries = []
    for w in (weights if weights is not None else range(2, max_weight + 1)):
        s1 = dmr_space(w)
        funcs = alpha_pair_functionals(w)
        s2 = solve_space(w, [_functional_constraint(funcs)], space="barkernel")
        entry = _entry_for_equality(w, "dmr0", s1, "bar_kernel", s2,
                                    report_only=(w == 2))
        entry.dims["constraints"] = len(funcs)
        entries.append(entry)
    return CheckReport("theorem_B", entries, seed, elapsed=time.perf_counter() - t0)


def verify_theorem_C(max_weight, seed=0, weights=None):
    """Four descriptions of rc_0 coincide: the residual equation, the y,x and
    x,y depth-one bar kernels, and the change-of-variable equation."""
    t0 = time.perf_counter()
    entries = []
    for w in (weights if weights is not None else range(2, max_weight + 1)):
        spaces = {
            "i_rc0": rc_space(w),
            "ii_yx": solve_space(w, [skew_constraint, _functional_constraint(
                alpha_pair_functionals(w, ("y", "x"), depth_one=True))], space="c2"),
            "iii_xy": solve_space(w, [skew_constraint, _functional_constraint(
                alpha_pair_functionals(w, ("x", "y"), depth_one=True))], space="c3"),
            "iv_mu": solve_space(w, [skew_constraint, c4_residual], space="c4"),
        }
        dims = {k: v.dimension for k, v in spaces.items()}
        status = "report-only" if w == 2 else "pass"
        witness = None
        if w > 2:
            base = spaces["i_rc0"]
            for key in ("ii_yx", "iii_xy", "iv_mu"):
                equal, bad = series_spans_equal(base.basis, spaces[key].basis)
                if not equal:
                    status = "fail"
                    witness = _witness_json(bad)
                    break
        entries.append(WeightEntry(w, status, dims, witness=witness))
    return CheckReport("theorem_C", entries, seed, elapsed=time.perf_counter() - t0)


def verify_theorem_D(max_weight, seed=0, weights=None):
    """rc_0 basis elements have vanishing even depth-one coefficients, their
    meta-abelian quotients come from a gamma cocycle, and the Ihara brackets
    of basis elements stay in rc_0.  For a homogeneous psi of weight w the
    only even depth-one coefficient that can be nonzero is that of
    x0^(w-1) x1, for w even."""
    t0 = time.perf_counter()
    bases = {w: rc_space(w, 0).basis for w in range(2, max_weight + 1)}
    entries = []
    for w in (weights if weights is not None else range(3, max_weight + 1)):
        dims = {"rc0": len(bases[w])}
        status = "pass"
        witness = None
        for psi in bases[w]:
            if w % 2 == 0 and psi.coeff(b"\x00" * (w - 1) + b"\x01"):
                status = "fail"
                witness = _witness_json(psi)
            ok, _gamma = frak_b_check(meta_abelian(psi))
            if not ok:
                status = "fail"
                witness = _witness_json(psi)
        brackets = 0
        for w1 in range(2, w - 1):
            w2 = w - w1
            if w2 < 2 or w2 < w1:
                continue
            for p1 in bases[w1]:
                for p2 in bases[w2]:
                    lifted1 = Series(p1.alphabet, w, p1.terms, _clean=False)
                    lifted2 = Series(p2.alphabet, w, p2.terms, _clean=False)
                    br = ihara_bracket(lifted1, lifted2)
                    brackets += 1
                    if not series_span_contains(bases[w], br):
                        status = "fail"
                        witness = _witness_json(br)
        dims["brackets"] = brackets
        entries.append(WeightEntry(w, status, dims, witness=witness))
    return CheckReport("theorem_D", entries, seed, elapsed=time.perf_counter() - t0)


def nonadmissible_sum_value(psi, k, l):
    """Sum of l^{y,x}_{sigma(a,b)}(psi_451 + psi_123) over quasi-shuffles with
    sigma^{-1}(N) = {k} and all-ones composed pair, for a = (1,)*k, b = (1,)*l."""
    a, b = (1,) * k, (1,) * l
    total = 0
    for s in sh_le(k, l):
        (first, second), tag = sigma_compose(s, a, b)
        if tag != "y,x" or not _all_ones(first, second):
            continue
        F = pulled_functional(((1, first, second),), ("y", "x"), PHI_LEGS)
        total += pair(F, psi)
    return total


def verify_theorem_E(max_weight, seed=0, weights=None):
    """Pipeline: dmr_0 + skew + krv1 sits inside rc_0 + krv1, and the
    tangential pair of every member lands in krv_2; plus the all-ones
    quasi-shuffle coefficient formula on dmr_0 bases for k+l <= 6.  Both
    cuts are taken on the solved dmr_0 and rc spaces."""
    t0 = time.perf_counter()
    entries = []
    for w in (weights if weights is not None else range(3, max_weight + 1)):
        dmr0 = dmr_space(w)
        s1 = solve_space(w, [skew_constraint, _krv1_linear], space="dmr0skewkrv1",
                         chart=dmr0)
        s2 = solve_space(w, [_krv1_linear], space="rc0krv1", chart=rc_space(w))
        dims = {"dmr0_skew_krv1": s1.dimension, "rc0_krv1": s2.dimension}
        status = "pass"
        witness = None
        for psi in s1.basis:
            if not series_span_contains(s2.basis, psi):
                status = "fail"
                witness = _witness_json(psi)
        krv2 = krv2_space(w)
        dims["krv2"] = krv2.dimension
        cyc_ok = True
        for psi in s2.basis:
            u = tangential_pair_of(psi)
            cyc_ok = cyc_ok and is_cyclic_invariant(potential(u))
            residual, _f = nc_krv2_fit(u)
            if not residual.is_zero:
                status = "fail"
                witness = _witness_json(psi)
            u = u.normalized()
            if not u.is_zero and not series_span_contains(krv2.basis, u):
                status = "fail"
                witness = _witness_json(psi)
        dims["h_cyclic_invariant"] = cyc_ok
        if w <= 6:
            ok = True
            for psi in dmr0.basis:
                for k in range(1, w):
                    l = w - k
                    got = nonadmissible_sum_value(psi, k, l)
                    # (l+k-1)!/(k! l!) need not be an integer; stay exact
                    coeff = Fraction(math.factorial(k + l - 1),
                                     math.factorial(k) * math.factorial(l))
                    expected = ((-1) ** (k + l)) * coeff \
                        * psi.coeff(b"\x00" * (k + l - 1) + b"\x01")
                    if got != expected:
                        ok = False
            dims["nonadmissible1111"] = ok
            if not ok:
                status = "fail"
        entries.append(WeightEntry(w, status, dims, witness=witness))
    return CheckReport("theorem_E", entries, seed, elapsed=time.perf_counter() - t0)


def conjecture_scan(max_weight, seed=0):
    """Dimension pairs of the krv1 cut versus the shifted-pair cut of the
    skew Lie space; reported, never asserted."""
    t0 = time.perf_counter()
    entries = []
    for w in range(3, max_weight + 1):
        d1 = space("krv1skew", w).dimension
        d2 = space("conj2", w).dimension
        entries.append(WeightEntry(w, "report-only",
                                   {"krv1skew": d1, "conj2": d2,
                                    "equal": d1 == d2}))
    return CheckReport("conjecture", entries, seed, elapsed=time.perf_counter() - t0)


VERIFIERS = {"A": verify_theorem_A, "B": verify_theorem_B,
             "C": verify_theorem_C, "D": verify_theorem_D,
             "E": verify_theorem_E}

DEFAULT_CEILINGS = {"A": 8, "B": 7, "C": 8, "D": 8, "E": 8}


# -- seeded lemma suites ------------------------------------------------------

def random_lie_series(weight, rng, skew=False, max_weight=None, span=3):
    mw = weight if max_weight is None else max_weight
    out = Series.zero(two_letter_alphabet(), mw)
    for _w, _tree, elt in lyndon_basis(weight, mw).elements:
        c = rng.randint(-span, span)
        if c:
            out = out + elt.scale(c)
    if skew:
        out = out - letter_swap(out)
    return out


def lemma_cab23_failures(max_weight=6, samples=100, seed=0):
    """pi^{2,3} coface identities on seeded random skew Lie series."""
    from .braid import pi_coface
    from .coaction import r_series, reduced_coaction
    from .series import fox_derivative
    rng = random.Random(seed)
    failures = []
    for w in range(2, max_weight + 1):
        for i in range(samples):
            psi = random_lie_series(w, rng, skew=True)
            r = r_series(psi)
            expected = {
                "1,2,34": -1 * fox_derivative(psi, "x1", "right"),
                "12,3,4": -1 * fox_derivative(psi, "x0", "left"),
                "1,23,4": reduced_coaction(psi),
                "2,3,4": substitute(r, S_AT_X1),
                "1,2,3": -1 * substitute(r, S_AT_MINUS_X0),
            }
            for name, want in expected.items():
                got = pi_coface(psi, name, "23").module_series()
                if got != want:
                    failures.append(("cab23", w, i, name))
    return failures


def lemma_cabling34_failures(max_weight=6, samples=100, seed=0):
    """pi^{3,4} coface identities on seeded random Lie series."""
    from .braid import pi_coface
    from .coaction import reduced_coaction
    from .series import fox_derivative
    rng = random.Random(seed)
    failures = []
    for w in range(1, max_weight + 1):
        zero = Series.zero(two_letter_alphabet(), w)
        for i in range(samples):
            eta = random_lie_series(w, rng)
            dr1 = fox_derivative(eta, "x1", "right")
            expected = {
                "1,2,34": reduced_coaction(eta),
                "2,3,4": -1 * substitute(dr1, AT_X1_ZERO),
                "12,3,4": -1 * substitute(dr1, AT_SUM_ZERO),
                "1,2,3": zero,
                "1,23,4": -1 * dr1,
            }
            for name, want in expected.items():
                got = pi_coface(eta, name, "34").module_series()
                if got != want:
                    failures.append(("cabling34", w, i, name))
    return failures


def lemma_dihedral_failures(max_weight=6, samples=3, seed=0):
    """alpha^sigma = alpha and alpha^tau = -alpha for seeded skew series."""
    from .braid import SIGMA, TAU, defect, permute_strands
    rng = random.Random(seed)
    failures = []
    for w in range(2, max_weight + 1):
        for i in range(samples):
            psi = random_lie_series(w, rng, skew=True)
            alpha = defect(psi)
            if permute_strands(alpha, SIGMA) != alpha:
                failures.append(("sigma", w, i))
            if permute_strands(alpha, TAU) != -alpha:
                failures.append(("tau", w, i))
    return failures


def lemma_polylogs_failures(max_weight=6, samples=2, seed=0):
    """The compilation of polylogarithm identities on the pentagon legs, via
    the pullback functionals."""
    rng = random.Random(seed)
    failures = []
    for w in range(2, max_weight + 1):
        for i in range(samples):
            psi = random_lie_series(w, rng)
            for a, b in index_pairs(w):
                byx = bar_double(a, b, ("y", "x"))
                if pair(pentagon_functional(byx, ((1, "543"),)), psi):
                    failures.append(("543", w, i, a, b))
                l_ab = pair(bar_single(a + b, "z"), psi)
                if pair(pentagon_functional(byx, ((1, "215"),)), psi) != l_ab:
                    failures.append(("215", w, i, a, b))
                if not _all_ones(a, b):
                    if pair(pentagon_functional(byx, ((1, "432"),)), psi):
                        failures.append(("432", w, i, a, b))
                bxy = bar_double(a, b, ("x", "y"))
                if pair(pentagon_functional(bxy, PHI_LEGS), psi) != l_ab:
                    failures.append(("451+123 double", w, i, a, b))
            for a in _compositions(w):
                got = pair(pentagon_functional(bar_single(a, "xy"), PHI_LEGS), psi)
                if got != pair(bar_single(a, "z"), psi):
                    failures.append(("451+123 single", w, i, a))
    return failures


def stuffle_identity_failures(max_weight=6, samples=2, seed=0):
    """The two-variable quasi-shuffle identity evaluated on the primitive
    element psi_451 + psi_123."""
    rng = random.Random(seed)
    failures = []
    for w in range(2, max_weight + 1):
        for i in range(samples):
            psi = random_lie_series(w, rng)
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
                    total += pair(pentagon_functional(bar, PHI_LEGS), psi)
                if total:
                    failures.append((w, i, a, b))
    return failures


def prop_sum_failures(max_weight=6):
    """eq (sum): on dmr_0 bases, the corrected one-variable stuffle sums match
    the signed y,x pentagon sums for every index pair."""
    failures = []
    for w in range(2, max_weight + 1):
        for psi in dmr_space(w).basis:
            star = psi_star(psi)
            for a, b in index_pairs(w):
                lhs = 0
                rhs = 0
                for s in sh_le(len(a), len(b)):
                    (first, second), tag = sigma_compose(s, a, b)
                    merged = first + second
                    corr_val = y_functional(merged, star) \
                        - pair(bar_single(merged, "z"), psi)
                    rhs += corr_val
                    if tag == "y,x":
                        F = pulled_functional(((1, first, second),), ("y", "x"),
                                              PHI_LEGS)
                        lhs += pair(F, psi) - pair(bar_single(merged, "z"), psi)
                if lhs != rhs:
                    failures.append((w, a, b))
    return failures


def one_loop_equivalence(max_weight=7):
    """Prop: the depth-one bar kernel equals the space cut by the (a, b1) and
    (b1, a) stuffle functionals; returns per-weight dimension pairs and
    equality flags.  Each stuffle functional is the y-series summing the
    y-words of the composed indices over Sh^{<=}, paired with psi_*."""
    out = []
    for w in range(2, max_weight + 1):
        s1 = solve_space(w, [_functional_constraint(
            alpha_pair_functionals(w, ("y", "x"), depth_one=True))], space="oneloop1")
        ys = y_alphabet(w)

        def stuffle_sum(a, b):
            terms = {}
            for sg in sh_le(len(a), len(b)):
                (first, second), _tag = sigma_compose(sg, a, b)
                _iadd(terms, y_word(ys, first + second), 1)
            return Series(ys, w, terms, _clean=False)

        funcs = []
        for b1 in range(1, w):
            for a in _compositions(w - b1):
                funcs.append((("ba", b1, a), stuffle_sum((b1,), a)))
                funcs.append((("ab", a, b1), stuffle_sum(a, (b1,))))
        stuffle = _functional_constraint(funcs)
        s2 = solve_space(w, [lambda s: stuffle(psi_star(s))], space="oneloop2")
        equal, _ = series_spans_equal(s1.basis, s2.basis)
        out.append((w, s1.dimension, s2.dimension, equal))
    return out
