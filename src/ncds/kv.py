"""Kashiwara-Vergne layer: tangential and special derivations, divergence,
the krv equations, the potential and its noncommutative krv2 equation, the
necklace Lie bialgebra on cyclic words, and the krv_2 solution spaces.

``TangentialDerivation`` lives in ``lie``, whose "pairs" chart solves over
it.  Its keys are (slot, word), slot i standing next to the letter x_i, and
the maps here read them directly.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import InputError
from .coaction import (_contractions, change_of_variable, reduced_coaction,
                       solve_in_eta)
from .lie import (TangentialDerivation, apply_derivation, is_lie_series,
                  lie_bracket, lyndon_words, solve_space, swap_word)
from .series import (S_AT_SUM, S_AT_X0, S_AT_X1, CyclicSeries, Series,
                     TensorSeries, fox_derivative, letter_swap,
                     one_letter_alphabet, shuffle_splits, substitute, symmetrize,
                     two_letter_alphabet, _canonical_rotation, _iadd)


def tder_apply(u, f):
    """Leibniz extension over words of u(x0) = [x0, a1], u(x1) = [x1, a2]."""
    return apply_derivation(u.generator_images(), f, f.max_weight)


def tder_bracket(u, v):
    """Commutator in tDer: ( u(b1) - v(a1) + [a1,b1], same on the second
    slot ), renormalized."""
    c1 = tder_apply(u, v.a1) - tder_apply(v, u.a1) + lie_bracket(u.a1, v.a1)
    c2 = tder_apply(u, v.a2) - tder_apply(v, u.a2) + lie_bracket(u.a2, v.a2)
    return TangentialDerivation.of(c1, c2).normalized()


def _sder_constraint(u):
    """u(x0) + u(x1), zero iff u is special."""
    img0, img1 = u.generator_images()
    return img0 + img1


def is_sder(u):
    """Special: u(x0 + x1) = 0."""
    return _sder_constraint(u).is_zero


def same_derivation(u, v):
    a = u.generator_images()
    b = v.generator_images()
    return (a[0] - b[0]).is_zero and (a[1] - b[1]).is_zero


def divergence(u):
    """u = (a1, a2) -> |x0 d^R_0(a1) + x1 d^R_1(a2)|: the words of each
    slot that start with its letter (x0 in a1, x1 in a2), up to rotation."""
    terms = {w: c for (slot, w), c in u.terms.items() if w and w[0] == slot}
    return CyclicSeries(u.alphabet, u.max_weight, terms)


def krv1_residual(psi):
    """[x1, psi(-x0-x1, x1)] + [x0, psi(-x0-x1, x0)]."""
    if not is_lie_series(psi):
        raise InputError("krv1 residual is defined for Lie series")
    return _krv1_linear(psi)


def _krv1_linear(psi):
    """[x0, psi(-x0-x1, x0)] + [x1, psi(-x0-x1, x1)], one weight up."""
    return _krv1_in_eta(change_of_variable(psi))


def _eta_pair(eta):
    """(eta(x1, x0), eta): for eta = psi(-x0-x1, x1) this is the pair
    (psi(-x0-x1, x0), psi(-x0-x1, x1))."""
    return TangentialDerivation.of(letter_swap(eta), eta)


def _krv1_in_eta(eta):
    """The krv1 equation written on eta = psi(-x0-x1, x1): the pair
    (eta(x1, x0), eta) is special."""
    return _sder_constraint(_eta_pair(eta))


def tangential_pair_of(psi):
    """u_psi = (psi(-x0-x1, x0), psi(-x0-x1, x1)), the pair attached to a
    Lie series, with its linear terms kept (``.normalized()`` strips them);
    krv1_residual(psi) = 0 iff this pair is special.  This is the one place
    psi(-x0-x1, .) is computed, by one substitution: the first slot is the
    second with its letters swapped.  potential and nc_krv2_fit read it off."""
    return _eta_pair(change_of_variable(psi))


def potential(u):
    """h = x0 a1 + x1 a2 for a pair u = (a1, a2), one weight up: each
    (slot, word) key becomes the word with the slot letter prepended.  On
    u = tangential_pair_of(psi) this is h_psi; psi is not checked to be a
    Lie series."""
    terms = {bytes((slot,)) + w: c for (slot, w), c in u.terms.items()}
    return Series(u.alphabet, u.max_weight + 1, terms, _clean=False)


def nc_krv2_fit(u):
    """mu(h_psi) against f(x0+x1) - f(x0) - f(x1) with the explicit
    candidate f = x0 d^R_1(psi(-x0-x1, x1))(x0, 0), read off the pair
    u = tangential_pair_of(psi).

    Returns (residual, f) where f is a one-letter Series; psi is not
    checked to be a Lie series.
    """
    mu_h = reduced_coaction(potential(u))
    g = fox_derivative(u.a2, "x1", "right")
    s_alpha = one_letter_alphabet()
    f_terms = {}
    for w, c in g.terms.items():
        if not any(w):  # pure x0 power (possibly empty)
            _iadd(f_terms, bytes(len(w) + 1), c)
    f = Series(s_alpha, u.max_weight + 1, f_terms, _clean=False)
    combo = substitute(f, S_AT_SUM) - substitute(f, S_AT_X0) \
        - substitute(f, S_AT_X1)
    return mu_h - combo, f


def is_cyclic_invariant(h):
    """In the image of the symmetrization N: coefficients constant on the
    rotation class of every word."""
    for w, c in h.terms.items():
        rot = w
        for _ in range(len(w)):
            rot = rot[1:] + rot[:1]
            if h.terms.get(rot, 0) != c:
                return False
    return True


def hamiltonian(c):
    """H: |a| -> (d^R_0 N(|a|), d^R_1 N(|a|)), landing in special
    derivations; weight-one and constant components are excluded."""
    if any(len(w) < 2 for w in c.terms):
        raise ValueError("hamiltonian needs homogeneous weight >= 2 input")
    n = symmetrize(c)
    return TangentialDerivation.of(fox_derivative(n, "x0", "right"),
                                   fox_derivative(n, "x1", "right"))


def hamiltonian_inverse(u):
    """|x0 a1 + x1 a2| with each weight-m homogeneous piece divided by m,
    so that hamiltonian_inverse(hamiltonian(|a|)) = |a|."""
    body = potential(u)
    out = {}
    for w, c in body.terms.items():
        v = Fraction(c, len(w))
        _iadd(out, w, int(v) if v.denominator == 1 else v)
    return CyclicSeries(body.alphabet, body.max_weight, out)


# -- necklace Lie bialgebra ---------------------------------------------------

def necklace_bracket(a, b):
    """Necklace bracket of cyclic words induced by the diagonal Fox pairing.

    Local gluing rule of the star-quiver necklace bracket: for every pair of
    positions carrying the same letter s, glue the two necklaces through one
    copy of s, in both orders with opposite signs:

        {|a|, |b|} = sum_{a_i = b_j = s} ( |s A B| - |s B A| ),

    with A, B the complementary arcs.  This is the reading of the Fox-pairing
    display arbitrated by the Hamiltonian morphism test: H{|a|,|b|} =
    [H|a|, H|b|] as derivations.
    """
    if a.alphabet != b.alphabet:
        raise ValueError("alphabet mismatch")
    mw = min(a.max_weight, b.max_weight)
    out = {}
    for wa, ca in a.terms.items():
        for wb, cb in b.terms.items():
            if len(wa) + len(wb) - 1 > mw:
                continue
            coef = ca * cb
            for i in range(len(wa)):
                for j in range(len(wb)):
                    if wa[i] != wb[j]:
                        continue
                    arc_a = wa[i:] + wa[:i]
                    arc_b = wb[j:] + wb[:j]
                    _iadd(out, _canonical_rotation(arc_a + arc_b[1:]), coef)
                    _iadd(out, _canonical_rotation(arc_b + arc_a[1:]), -coef)
    return CyclicSeries(a.alphabet, mw, out, _clean=False)


def necklace_cobracket(a):
    """delta(|a|) = |a' S(mu(a'')')| (x) |mu(a'')''| - flip, with the Sweedler
    sums read through the Hopf algebra's own (shuffle) coproduct.

    Antisymmetric by construction; this reading is the only one of the
    deconcatenation/shuffle family that also satisfies co-Jacobi and the Lie
    bialgebra cocycle identity against the necklace bracket.
    """
    out = {}
    for w, c in a.terms.items():
        for a1, a2 in shuffle_splits(w):
            for m_word in _contractions(a2):
                for m1, m2 in shuffle_splits(m_word):
                    sgn = -c if len(m1) % 2 else c
                    left = _canonical_rotation(a1 + m1[::-1])
                    right = _canonical_rotation(m2)
                    _iadd(out, (left, right), sgn)
                    _iadd(out, (right, left), -sgn)
    return TensorSeries(a.alphabet, a.max_weight, out, _clean=False)


# -- krv2 solution space ------------------------------------------------------

def sder_functionals(weight):
    """The special-derivation condition u(x0+x1) = 0 as a family of
    functionals for `solve_space` on the pairs chart of the weight: the row
    at each Lyndon word l of weight + 1 is a1[l[1:]] - a2[l[:-1]], the
    coefficient of l in _sder_constraint(u).  A Lyndon word of length >= 2
    starts with x0 and ends with x1, so [x0, a1] gives it only through x0 a1
    and [x1, a2] only through -a2 x1.

    Lie charts only (the pairs chart, or a solved space of pairs of Lie
    series): there u(x0+x1) is a Lie series, which is zero iff its
    coefficients at the Lyndon words are (see lie.skew_functionals)."""
    alphabet = two_letter_alphabet()
    for l in lyndon_words(weight + 1):
        yield l, TangentialDerivation(alphabet, weight, {(0, l[1:]): 1, (1, l[:-1]): -1},
                                      _clean=False)


def krv1_eta_functionals(weight):
    """The krv1 equation on eta = psi(-x0-x1, x1) (_krv1_in_eta) as a family
    of functionals on a Lie chart of eta at the weight: sder_functionals read
    on the pair (eta(x1, x0), eta), whose a1[v] is eta[swap v], so the row
    at l is eta[swap l[1:]] - eta[l[:-1]]."""
    alphabet = two_letter_alphabet()
    for l, F in sder_functionals(weight):
        terms = {}
        for (slot, w), c in F.terms.items():
            _iadd(terms, swap_word(w) if slot == 0 else w, c)
        yield l, Series(alphabet, weight, terms, _clean=False)


def _pair_linear_constraint(u):
    """The canonical pair has no x0 in a1 and no x1 in a2."""
    return {"a1": u.terms.get((0, b"\x00"), 0), "a2": u.terms.get((1, b"\x01"), 0)}


def _div_in_target_line(weight):
    """The constraint div(u) in k |(x0+x1)^w - x0^w - x1^w| on pairs u of
    the weight.  With T the target, k0 a fixed key of T and t0 = T[k0],
    div(u) lies in k T iff t0 div(u) - div(u)[k0] T = 0."""
    target = CyclicSeries(two_letter_alphabet(), weight,
                          {bytes(w): 1 for w in itertools.product((0, 1), repeat=weight)
                           if 0 < sum(w) < weight})
    # at weight 1, T = 0 and the constraint is div(u) itself
    k0, t0 = min(target.terms.items(), default=(b"", 1))

    def div_in_target_line(u):
        div = divergence(u)
        return div.scale(t0) - target.scale(div.coeff(k0))
    return div_in_target_line


def krv2_space(weight):
    """Basis of tangential derivations (a1, a2) of the given weight with
    u(x0+x1) = 0 and div(u) in k |(x0+x1)^w - x0^w - x1^w|."""
    if weight < 1:
        raise InputError("krv2 space starts at weight 1")
    return solve_space(weight, [sder_functionals(weight), _div_in_target_line(weight),
                                _pair_linear_constraint],
                       space="krv2", chart="pairs")


def krv1skew_space(weight):
    """Skew Lie series of the given weight that satisfy the krv1 equation,
    one side of the conjecture scan: the equation is solved on eta =
    psi(-x0-x1, x1), then cut by skew symmetry."""
    if weight < 2:
        raise InputError("krv1skew space starts at weight 2")
    return solve_in_eta(weight, [krv1_eta_functionals(weight)], "krv1skew")
