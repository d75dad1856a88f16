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

Weight 2 is report-only in every check (`_check`): [x0, x1] satisfies the
double-shuffle conditions but has commutator coefficient 1, so the theorem
comparisons start at weight 3.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction
from functools import lru_cache

from . import InputError, __version__ as KERNEL_VERSION
from .barwords import _bar_xy, bar_double, bar_single, order_target, pair
from .braid import ALPHA_LEGS, CHORD_NAMES, PHI_LEGS, chord_alphabet, leg_insertion
from .coaction import (_c4_in_eta, c4_functionals, change_of_variable,
                       frak_b_check, ihara_bracket, meta_abelian, rc_space,
                       solve_in_eta)
from .dshuffle import (dmr_space, psi_star, sh_le, sigma_compose, y_functional,
                       y_word)
from .kv import (_krv1_linear, is_cyclic_invariant, krv1skew_space, krv2_space,
                 nc_krv2_fit, potential, tangential_pair_of)
from .lie import (SolutionSpace, certify_space, integer_multiples,
                  lyndon_basis, series_span_contains, series_spans_equal,
                  skew_functionals, solve_space, spans_kernel, swap_word)
from .series import (AT_SUM_ZERO, AT_X1_ZERO, S_AT_MINUS_X0, S_AT_X1,
                     LinearMorphism, Series, letter_swap, substitute,
                     two_letter_alphabet, _iadd)


class WeightEntry:
    """One weight of a report; status is pass, fail or report-only."""

    def __init__(self, w, status, dims, witness=None):
        self.w = w
        self.status = status
        self.dims = dims
        self.witness = witness

    def to_json(self):
        out = {"w": self.w, "status": self.status,
               "dims": {k: self.dims[k] for k in sorted(self.dims)}}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


class CheckReport:
    """A check's weight entries; elapsed is not serialized, so that reports
    stay byte-stable."""

    def __init__(self, check, weights, elapsed=0.0):
        self.check = check
        self.weights = weights
        self.elapsed = elapsed

    @property
    def ok(self):
        return all(e.status != "fail" for e in self.weights)

    def to_json(self):
        return {"check": self.check,
                "weights": [e.to_json() for e in self.weights],
                "seed": 0,  # no check is random; kept so reports stay byte-stable
                "version": KERNEL_VERSION}

    def summary_lines(self):
        for e in self.weights:
            dims = " ".join("%s=%s" % (k, e.dims[k]) for k in sorted(e.dims))
            yield "%s w=%d %s %s" % (self.check, e.w, e.status, dims)
        yield "%s elapsed %.3f s" % (self.check, self.elapsed)


# -- pentagon pullback functionals -------------------------------------------

@lru_cache(maxsize=None)
def leg_target(leg):
    """The leg's pullback as a letter target over the chord alphabet: chord
    letter -> x0 (0), x1 (1) or None, the transpose of the leg's insertion
    psi -> psi(x_ij, x_jk).  Both pullback paths rely on every leg being a
    word morphism: each chord letter occurs in at most one image, with
    coefficient 1."""
    target = [None] * len(CHORD_NAMES)
    for x_letter, image in enumerate(leg_insertion(leg).images):
        for chord, c in image:
            if c != 1 or target[chord[0]] is not None:
                raise ValueError("leg %s is not a word morphism" % (leg,))
            target[chord[0]] = x_letter
    return tuple(target)


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


def pulled_functional(a, b, order, legs):
    """pentagon_functional(bar_double(a, b, order), legs), built in
    two-letter coordinates: the bar-word recursion runs on each leg's letter
    target, so no five-letter word is formed.  The leg words are built by
    the uncached recursion body and dropped once summed."""
    parts = ((sign, _bar_xy.__wrapped__(a, b, order_target(order, leg_target(leg))))
             for sign, leg in legs)
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
    on phi = psi_451 + psi_123, for dp(b) >= 2 and (a, b) not all ones.
    They are taken per composition c of the weight, as the differences
    L_k - L_{k+1} of its neighbouring splits L_k = l_{c[:k], c[k:]}(phi), so
    each split is built once."""
    yx = ("y", "x")
    for c in _compositions(weight):
        if len(c) < 3 or set(c) == {1}:
            continue
        left = pulled_functional(c[:1], c[1:], yx, PHI_LEGS)
        for k in range(1, len(c) - 1):
            right = pulled_functional(c[:k + 1], c[k + 1:], yx, PHI_LEGS)
            yield (c[:k], c[k:]), left - right
            left = right


def conj2_space(weight):
    """Skew Lie series of the given weight cut by the shifted-pair
    functionals, the other side of the conjecture scan."""
    if weight < 2:
        raise InputError("conj2 space starts at weight 2")
    return solve_space(weight, [skew_functionals(weight),
                                shifted_pair_functionals(weight)], space="conj2")


def _alpha_keys(weight, depth_one=False):
    return [(a, b) for a, b in index_pairs(weight)
            if (len(b) == 1 if depth_one else not _all_ones(a, b))]


def alpha_pair_functionals(weight, orders=("y", "x"), depth_one=False):
    """Functionals psi -> l_{a,b}(alpha(psi)) for pairs of the given weight,
    not all ones; depth_one restricts to dp(b) = 1 instead."""
    return (((a, b), pulled_functional(a, b, orders, ALPHA_LEGS))
            for a, b in _alpha_keys(weight, depth_one))


def _reversed_legs():
    """Per (sign, leg) of ALPHA_LEGS, (sign, source, swapped): the y,x
    order's letter target of leg is the x,y target of the leg source, with
    x0 and x1 exchanged if swapped.  Strand reversal tau maps the y,x
    targets onto the x,y ones of the tau-images of the legs, which are legs
    again except 234, the image of 432, and 234's target is 432's swapped."""
    sources = {leg_target(leg): leg for _sign, leg in ALPHA_LEGS}
    out = []
    for sign, leg in ALPHA_LEGS:
        target = order_target(("y", "x"), leg_target(leg))
        if target in sources:
            out.append((sign, sources[target], False))
        else:
            swapped = tuple(t if t is None else 1 - t for t in target)
            out.append((sign, sources[swapped], True))
    return tuple(out)


def depth_one_families(weight):
    """The y,x and x,y families of alpha_pair_functionals(weight, order,
    depth_one=True), as two lists, built from one set of pentagon-leg words
    per key: the five x,y leg words, read again through _reversed_legs for
    the y,x order, so each key costs 5 uncached bar-word recursions, not
    10."""
    reversed_legs = _reversed_legs()
    yx, xy = [], []
    for a, b in _alpha_keys(weight, depth_one=True):
        words = {leg: _bar_xy.__wrapped__(a, b, leg_target(leg))
                 for _sign, leg in ALPHA_LEGS}
        xy.append(((a, b), _signed_sum(((sign, words[leg]) for sign, leg in ALPHA_LEGS),
                                       weight)))
        yx.append(((a, b), _signed_sum(
            ((sign, {swap_word(u): c for u, c in words[leg].items()} if swapped
              else words[leg]) for sign, leg, swapped in reversed_legs), weight)))
    return yx, xy


# -- theorem checks -----------------------------------------------------------

def _check(check, first_weight, max_weight, weights, entry):
    """The one check loop, which builds every report.  entry(w) gives a
    weight's dims and its failures, each a witness series or None, or None
    for no verdict.  Weight 2 and a weight with no verdict are report-only;
    a weight with a failure fails and carries its first witness."""
    t0 = time.perf_counter()
    entries = []
    for w in (weights if weights is not None else range(first_weight, max_weight + 1)):
        dims, failures = entry(w)
        status = ("report-only" if w == 2 or failures is None
                  else "fail" if failures else "pass")
        witness = (next((f.to_json() for f in failures if f is not None), None)
                   if status == "fail" else None)
        entries.append(WeightEntry(w, status, dims, witness))
    return CheckReport(check, entries, elapsed=time.perf_counter() - t0)


def _spans_entry(w, spaces):
    """Dims of named spaces that must all equal the first, and a witness for
    each that does not."""
    (_, base), *rest = spaces.items()
    witnesses = (series_spans_equal(base.basis, s.basis)[1] for _, s in rest)
    return ({k: s.dimension for k, s in spaces.items()},
            [f for f in witnesses if f is not None])


def verify_theorem_A(max_weight, weights=None):
    """dmr_0 with skew symmetry equals rc_0 cut by the shifted-pair bar
    functionals, weight by weight: each side is its base space cut by the
    added condition."""
    def entry(w):
        dims, failures = _spans_entry(w, {
            "dmr0_skew": solve_space(w, [skew_functionals(w)], space="dmr0skew",
                                     chart=dmr_space(w)),
            "rc0_shifted": solve_space(w, [shifted_pair_functionals(w)],
                                       space="rc0shifted", chart=rc_space(w))})
        if w == 2:
            dims["equal"] = not failures
        return dims, failures
    return _check("theorem_A", 2, max_weight, weights, entry)


def verify_theorem_B(max_weight, weights=None):
    """dmr_0 equals the kernel of the bar pairings against the pentagon
    defect over non-all-ones index pairs."""
    def entry(w):
        dims, failures = _spans_entry(w, {
            "dmr0": dmr_space(w),
            "bar_kernel": solve_space(w, [alpha_pair_functionals(w)],
                                      space="barkernel")})
        if w == 2:
            dims["equal"] = not failures
        dims["constraints"] = len(_alpha_keys(w))
        return dims, failures
    return _check("theorem_B", 2, max_weight, weights, entry)


def change_of_variable_side(weight, rc):
    """Theorem C's side iv, the skew psi whose eta = psi(-x0-x1, x1) solves
    the change-of-variable equation, given rc of the weight.  If the kernel
    E of `c4_functionals` on the eta Lyndon chart is certified to be
    span change_of_variable(rc) (`lie.spans_kernel`, on the integer
    multiples of rc, so the change of variable runs in integers), the side is
    skew ∩ change_of_variable(E) = skew ∩ span rc = span rc, since the
    change of variable is an involutive automorphism of the free Lie algebra
    and rc is skew, and rc's basis is returned under the name c4; on a miss
    the side is solved in eta (`solve_in_eta`)."""
    if spans_kernel(weight, [list(c4_functionals(weight))],
                    [change_of_variable(n) for n in integer_multiples(rc.basis)]):
        return SolutionSpace("c4", weight, list(rc.basis))
    return solve_in_eta(weight, [_c4_in_eta], "c4")


def verify_theorem_C(max_weight, weights=None):
    """Four descriptions of rc_0 coincide: the residual equation, the y,x and
    x,y depth-one bar kernels, and the change-of-variable equation.

    rc is solved once, and each other side is certified against it
    (`lie.spans_kernel`: every functional pairs to 0 with the side's
    expected basis, and a one-prime rank bound over rows read in a seeded
    order), and falls back to its full solve only on a miss, so each dim
    and witness is a full solve's.
    - The two bar kernels, skew Lie series cut by the depth-one functionals
      (`depth_one_families`, which share their leg words), are certified
      against rc by `certify_space`, which solves them on a miss.
    - The change-of-variable side is certified on the eta chart against
      change_of_variable(rc) (`change_of_variable_side`), and solved in eta
      on a miss.
    Each family is dropped once its side is decided."""
    def entry(w):
        rc = rc_space(w)
        spaces = {"i_rc0": rc}
        yx, xy = depth_one_families(w)
        spaces["ii_yx"] = certify_space(w, [skew_functionals(w), yx], rc, space="c2")
        spaces["iii_xy"] = certify_space(w, [skew_functionals(w), xy], rc, space="c3")
        del yx, xy
        spaces["iv_mu"] = change_of_variable_side(w, rc)
        return _spans_entry(w, spaces)
    return _check("theorem_C", 2, max_weight, weights, entry)


def verify_theorem_D(max_weight, weights=None):
    """rc_0 basis elements have vanishing even depth-one coefficients, their
    meta-abelian quotients come from a gamma cocycle, and the Ihara brackets
    of basis elements stay in rc_0.  For a homogeneous psi of weight w the
    only even depth-one coefficient that can be nonzero is that of
    x0^(w-1) x1, for w even.  Each rc_0 basis is solved once per process
    (rc_space is memoized)."""
    def entry(w):
        rc0 = rc_space(w, 0).basis
        failures = []
        for psi in rc0:
            if w % 2 == 0 and psi.coeff(b"\x00" * (w - 1) + b"\x01"):
                failures.append(psi)
            if not frak_b_check(meta_abelian(psi))[0]:
                failures.append(psi)
        brackets = 0
        for w1 in range(2, w // 2 + 1):
            for p1 in rc_space(w1, 0).basis:
                for p2 in rc_space(w - w1, 0).basis:
                    br = ihara_bracket(Series(p1.alphabet, w, p1.terms, _clean=False),
                                       Series(p2.alphabet, w, p2.terms, _clean=False))
                    brackets += 1
                    if not series_span_contains(rc0, br):
                        failures.append(br)
        return {"rc0": len(rc0), "brackets": brackets}, failures
    return _check("theorem_D", 3, max_weight, weights, entry)


def nonadmissible_sum_value(psi, k, l):
    """Sum of l^{y,x}_{sigma(a,b)}(psi_451 + psi_123) over quasi-shuffles with
    sigma^{-1}(N) = {k} and all-ones composed pair, for a = (1,)*k, b = (1,)*l."""
    a, b = (1,) * k, (1,) * l
    total = 0
    for s in sh_le(k, l):
        (first, second), tag = sigma_compose(s, a, b)
        if tag != "y,x" or not _all_ones(first, second):
            continue
        F = pulled_functional(first, second, ("y", "x"), PHI_LEGS)
        total += pair(F, psi)
    return total


def verify_theorem_E(max_weight, weights=None):
    """Pipeline: dmr_0 + skew + krv1 sits inside rc_0 + krv1, and the
    tangential pair of every member lands in krv_2; plus the all-ones
    quasi-shuffle coefficient formula on dmr_0 bases for k+l <= 6.  Both
    cuts are taken on the solved dmr_0 and rc spaces."""
    def entry(w):
        dmr0 = dmr_space(w)
        s1 = solve_space(w, [skew_functionals(w), _krv1_linear], space="dmr0skewkrv1",
                         chart=dmr0)
        s2 = solve_space(w, [_krv1_linear], space="rc0krv1", chart=rc_space(w))
        failures = [psi for psi in s1.basis if not series_span_contains(s2.basis, psi)]
        krv2 = krv2_space(w)
        dims = {"dmr0_skew_krv1": s1.dimension, "rc0_krv1": s2.dimension,
                "krv2": krv2.dimension}
        cyc_ok = True
        for psi, n in zip(s2.basis, integer_multiples(s2.basis)):
            u = tangential_pair_of(n)
            cyc_ok = cyc_ok and is_cyclic_invariant(potential(u))
            if not nc_krv2_fit(u)[0].is_zero:
                failures.append(psi)
            u = u.normalized()
            if not u.is_zero and not series_span_contains(krv2.basis, u):
                failures.append(psi)
        dims["h_cyclic_invariant"] = cyc_ok
        if w <= 6:
            # (w-1)!/(k! (w-k)!) need not be an integer; stay exact
            depth_one = b"\x00" * (w - 1) + b"\x01"
            ok = all(nonadmissible_sum_value(psi, k, w - k) == (-1) ** w * psi.coeff(depth_one)
                     * Fraction(math.factorial(w - 1), math.factorial(k) * math.factorial(w - k))
                     for psi in dmr0.basis for k in range(1, w))
            dims["nonadmissible1111"] = ok
            if not ok:
                failures.append(None)
        return dims, failures
    return _check("theorem_E", 3, max_weight, weights, entry)


def conjecture_scan(max_weight):
    """Dimension pairs of the krv1 cut versus the shifted-pair cut of the
    skew Lie space; reported, never asserted."""
    def entry(w):
        d1 = krv1skew_space(w).dimension
        d2 = conj2_space(w).dimension
        return {"krv1skew": d1, "conj2": d2, "equal": d1 == d2}, None
    return _check("conjecture", 3, max_weight, None, entry)


VERIFIERS = {"A": verify_theorem_A, "B": verify_theorem_B,
             "C": verify_theorem_C, "D": verify_theorem_D,
             "E": verify_theorem_E}

DEFAULT_CEILINGS = {"A": 8, "B": 7, "C": 8, "D": 8, "E": 8}


# -- seeded lemma suites ------------------------------------------------------

def _lie_generators(weight, skew=False):
    """The Lie elements a seeded sample combines, in draw order: the weight's
    Lyndon elements l, or l - l(x1, x0) for skew samples."""
    return [elt - letter_swap(elt) if skew else elt
            for _w, _tree, elt in lyndon_basis(weight).elements]


def _draw(rng, values):
    """The terms dict sum of c * value over the values, one
    c = rng.randint(-3, 3) drawn per value in order."""
    out = {}
    for value in values:
        c = rng.randint(-3, 3)
        if c:
            for k, v in value.items():
                _iadd(out, k, c * v)
    return out


def random_lie_series(weight, rng, skew=False):
    """A seeded sample: a combination of the weight's generators
    (_lie_generators) with coefficients in [-3, 3]."""
    return Series(two_letter_alphabet(), weight,
                  _draw(rng, [g.terms for g in _lie_generators(weight, skew)]),
                  _clean=False)


def _lemma_failures(first_weight, max_weight, samples, seed, skew, identity):
    """(w, i, key) wherever sample i of weight w (random_lie_series, drawn in
    turn from one rng) fails a key of the weight's identity.

    identity(w) gives the weight's check, psi -> {key: terms dict}, empty
    where the identity holds; a scalar identity gives {(): value}.  The
    check is linear in psi, so it is evaluated once on each generator, and
    a sample fails a key exactly when its combination of the generators'
    values is nonzero there.  Failures follow the check's key order."""
    rng = random.Random(seed)
    failures = []
    for w in range(first_weight, max_weight + 1):
        check = identity(w)
        values = [check(g) for g in _lie_generators(w, skew)]
        keys = list(values[0])
        flat = [{(key, m): v for key, terms in value.items() for m, v in terms.items()}
                for value in values]
        for i in range(samples):
            failed = {key for key, _m in _draw(rng, flat)}
            failures.extend((w, i, key) for key in keys if key in failed)
    return failures


def _pi_check(flavor, expected):
    """psi -> {coface: module part of pi_coface minus expected(psi)[coface]},
    in expected's coface order."""
    from .braid import pi_coface

    def check(psi):
        out = {}
        for name, want in expected(psi).items():
            diff = out[name] = pi_coface(psi, name, flavor).module
            for m, v in want.terms.items():
                _iadd(diff, m, -v)
        return out
    return check


def lemma_cab23_failures(max_weight=6, samples=100, seed=0):
    """pi^{2,3} coface identities on seeded random skew Lie series, at a
    cost per Lyndon generator, not per sample."""
    from .coaction import r_series, reduced_coaction
    from .series import fox_derivative
    def expected(psi):
        r = r_series(psi)
        return {
            "1,2,34": -1 * fox_derivative(psi, "x1", "right"),
            "12,3,4": -1 * fox_derivative(psi, "x0", "left"),
            "1,23,4": reduced_coaction(psi),
            "2,3,4": substitute(r, S_AT_X1),
            "1,2,3": -1 * substitute(r, S_AT_MINUS_X0),
        }
    check = _pi_check("23", expected)
    return [("cab23",) + row for row in _lemma_failures(
        2, max_weight, samples, seed, True, lambda w: check)]


def lemma_cabling34_failures(max_weight=6, samples=100, seed=0):
    """pi^{3,4} coface identities on seeded random Lie series, at a cost per
    Lyndon generator, not per sample."""
    from .coaction import reduced_coaction
    from .series import fox_derivative
    def expected(eta):
        dr1 = fox_derivative(eta, "x1", "right")
        return {
            "1,2,34": reduced_coaction(eta),
            "2,3,4": -1 * substitute(dr1, AT_X1_ZERO),
            "12,3,4": -1 * substitute(dr1, AT_SUM_ZERO),
            "1,2,3": Series.zero(two_letter_alphabet(), eta.max_weight),
            "1,23,4": -1 * dr1,
        }
    check = _pi_check("34", expected)
    return [("cabling34",) + row for row in _lemma_failures(
        1, max_weight, samples, seed, False, lambda w: check)]


def lemma_dihedral_failures(max_weight=6, samples=3, seed=0):
    """alpha^sigma = alpha and alpha^tau = -alpha for seeded skew series,
    checked once per Lyndon generator.

    alpha^sigma is the defect summed over the sigma-relabelled legs
    (defect's perm), so alpha is never re-expanded through sigma's chord
    rewrite, where x45 and x24 become three-term sums; tau permutes the
    letters of G, so alpha^tau stays permute_strands(alpha, TAU)."""
    from .braid import SIGMA, TAU, defect, permute_strands

    def check(psi):
        alpha = defect(psi)
        return {"sigma": (defect(psi, perm=SIGMA) - alpha).terms,
                "tau": (permute_strands(alpha, TAU) + alpha).terms}
    return [(key, w, i) for w, i, key in _lemma_failures(
        2, max_weight, samples, seed, True, lambda w: check)]


def _pairings(checks):
    """psi -> {key: {(): <F, psi>}} over (key, F) functionals."""
    return lambda psi: {key: {(): pair(F, psi)} for key, F in checks}


def _polylog_functionals(w):
    """((tag, a[, b]), F) for each polylogarithm identity of weight w, with
    F the functional that pairs to zero on psi iff the identity holds."""
    out = []
    for a, b in index_pairs(w):
        byx = bar_double(a, b, ("y", "x"))
        l_ab = bar_single(a + b, "z")
        out.append((("543", a, b), pentagon_functional(byx, ((1, "543"),))))
        out.append((("215", a, b), pentagon_functional(byx, ((1, "215"),)) - l_ab))
        if not _all_ones(a, b):
            out.append((("432", a, b), pentagon_functional(byx, ((1, "432"),))))
        bxy = bar_double(a, b, ("x", "y"))
        out.append((("451+123 double", a, b), pentagon_functional(bxy, PHI_LEGS) - l_ab))
    for a in _compositions(w):
        out.append((("451+123 single", a),
                    pentagon_functional(bar_single(a, "xy"), PHI_LEGS) - bar_single(a, "z")))
    return out


def lemma_polylogs_failures(max_weight=6, samples=2, seed=0):
    """The compilation of polylogarithm identities on the pentagon legs, via
    the pullback functionals.  The functionals do not depend on psi, so they
    are built once per weight and paired once per Lyndon generator."""
    return [(tag, w, i, *key) for w, i, (tag, *key) in _lemma_failures(
        2, max_weight, samples, seed, False,
        lambda w: _pairings(_polylog_functionals(w)))]


def _stuffle_functional(a, b):
    """The sum over Sh^{<=} of the composed bar words' PHI_LEGS functionals."""
    parts = []
    for s in sh_le(len(a), len(b)):
        (first, second), tag = sigma_compose(s, a, b)
        if tag == "xy":
            bar = bar_single(first, "xy")
        elif tag == "x,y":
            bar = bar_double(first, second, ("x", "y"))
        else:
            bar = bar_double(first, second, ("y", "x"))
        parts.append((1, pentagon_functional(bar, PHI_LEGS).terms))
    return _signed_sum(parts, sum(a) + sum(b))


def stuffle_identity_failures(max_weight=6, samples=2, seed=0):
    """The two-variable quasi-shuffle identity evaluated on the primitive
    element psi_451 + psi_123.  Each identity is one functional, built once
    per weight and paired once per Lyndon generator."""
    return [(w, i, a, b) for w, i, (a, b) in _lemma_failures(
        2, max_weight, samples, seed, False,
        lambda w: _pairings([((a, b), _stuffle_functional(a, b))
                             for a, b in index_pairs(w)]))]


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
                        F = pulled_functional(first, second, ("y", "x"), PHI_LEGS)
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
        s1 = solve_space(w, [alpha_pair_functionals(w, ("y", "x"), depth_one=True)],
                         space="oneloop1")

        def stuffle_sum(a, b):
            terms = {}
            for sg in sh_le(len(a), len(b)):
                (first, second), _tag = sigma_compose(sg, a, b)
                _iadd(terms, y_word(first + second), 1)
            return terms

        funcs = []
        for b1 in range(1, w):
            for a in _compositions(w - b1):
                funcs.append((("ba", b1, a), stuffle_sum((b1,), a)))
                funcs.append((("ab", a, b1), stuffle_sum(a, (b1,))))

        def stuffle(s):
            # paired after psi_*, so a callable rather than a family of rows
            star = psi_star(s).terms
            return {key: sum(c * star.get(y, 0) for y, c in F.items())
                    for key, F in funcs}
        s2 = solve_space(w, [stuffle], space="oneloop2")
        equal, _ = series_spans_equal(s1.basis, s2.basis)
        out.append((w, s1.dimension, s2.dimension, equal))
    return out
