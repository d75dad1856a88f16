"""Reduced coaction, the rc spaces, the meta-abelian quotient, and the Ihara
bracket.

The reduced coaction of a word contracts each adjacent equal-letter pair to a
single letter; the associated one-variable series r collects the coefficients
of the words x0^(l+1) x1.  An eta with zero linear part solves the reduced
coaction equation when

    mu(eta) = -r_eta(x1) + r_eta(-x0) - (eta)_x0 - x1_(eta),

where (eta)_x0 is the part ending in x0 (left Fox derivative) and x1_(eta)
the part starting in x1 (right Fox derivative).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb

from . import InputError
from .lie import (apply_derivation, integer_multiples, is_lie_series,
                  letter_bracket, lie_bracket, skew_functionals, solve_space,
                  SolutionSpace)
from .series import (AT_MINUS_SUM_X1, AT_SUM_ZERO, AT_X1_ZERO, S_AT_MINUS_X0,
                     S_AT_X1, Series, abelianize, fox_derivative,
                     one_letter_alphabet, substitute, two_letter_alphabet,
                     _iadd)


def _contractions(w):
    """w with one adjacent equal-letter pair contracted to a single letter,
    once per such pair."""
    for i in range(len(w) - 1):
        if w[i] == w[i + 1]:
            yield w[:i + 1] + w[i + 2:]


def reduced_coaction(f):
    """mu: sum over adjacent equal-letter contractions of each word."""
    if len(f.alphabet) != 2:
        raise ValueError("reduced coaction is defined on a two-letter alphabet")
    out = {}
    for w, c in f.terms.items():
        for v in _contractions(w):
            _iadd(out, v, c)
    return Series(f.alphabet, f.max_weight, out, _clean=False)


def r_series(eta):
    """r_eta(x) = sum_l c_{x0^(l+1) x1}(eta) x^(l+1), as a one-letter Series."""
    s = one_letter_alphabet()
    out = {}
    for w, c in eta.terms.items():
        if len(w) >= 2 and w[-1] == 1 and not any(w[:-1]):
            _iadd(out, bytes(len(w) - 1), c)
    return Series(s, max(eta.max_weight - 1, 0), out, _clean=False)


def _rc_residual_linear(eta):
    """The residual as a plain linear operator, no precondition checks; this
    is what the solvers impose as a constraint."""
    r = r_series(eta)
    out = reduced_coaction(eta)
    if not r.is_zero:  # r lives one weight down and would lower max_weight
        out = out + substitute(r, S_AT_X1) - substitute(r, S_AT_MINUS_X0)
    out = out + fox_derivative(eta, "x0", "left")
    out = out + fox_derivative(eta, "x1", "right")
    return out


def rc_residual(eta):
    """mu(eta) + r_eta(x1) - r_eta(-x0) + (eta)_x0 + x1_(eta); zero iff the
    reduced coaction equation holds."""
    if eta.coeff(b"\x00") or eta.coeff(b"\x01"):
        raise InputError("rc residual needs c_x0(eta) = c_x1(eta) = 0")
    if not is_lie_series(eta):
        raise InputError("rc residual is defined for Lie series")
    return _rc_residual_linear(eta)


def rc_space(weight, lam=None):
    """Skew-symmetric solutions of the reduced coaction equation at a weight.

    lam constrains the coefficient of [x0, x1]; it only bites at weight 2
    since higher weights have no commutator component.  lam=None leaves it
    free (the space rc), lam=0 gives rc_0, the space rc cut by that
    coefficient, and a nonzero lam produces an affine set returned as
    offset + rc_0 basis.

    Memoized for the life of the process under one key per (weight, lam),
    however lam is passed, and every lam cuts the one memoized rc of its
    weight, so rc is solved once per weight; the returned space is shared
    and must not be mutated.
    """
    return _rc_space(weight, lam)


@lru_cache(maxsize=None)
def _rc_space(weight, lam):
    if weight < 2:
        raise InputError("rc space starts at weight 2")
    if lam is None:
        return solve_space(weight, [skew_functionals(weight), _rc_residual_linear],
                           space="rc")
    space = _rc_space(weight, None)
    rc0 = solve_space(weight, [lambda s: {"lam": s.coeff(b"\x00\x01")}],
                      space="rc0", chart=space)
    if lam == 0:
        return rc0
    particular = None
    for b in space.basis:
        v = b.coeff(b"\x00\x01")
        if v:
            particular = b.scale(Fraction(lam, 1) / v)
            break
    if particular is None:
        raise InputError("no solution with the requested commutator coefficient")
    return SolutionSpace("rc_lambda", weight, rc0.basis, offset=particular)


def meta_abelian(psi):
    """B_psi = abelianization of (part of psi ending in x1) * x1, that is of
    the words of psi that end in x1."""
    return abelianize(Series(psi.alphabet, psi.max_weight,
                             {w: c for w, c in psi.terms.items() if w[-1:] == b"\x01"},
                             _clean=False))


def frak_b_check(beta):
    """Test beta(x0,x1) = gamma(x0) + gamma(x1) - gamma(x0+x1) with
    gamma in s^2 k[[s]]; returns (bool, gamma Series or None).

    gamma_n is reconstructed from the bidegree (n-1, 1) coefficient as
    -beta_(n-1,1) / binom(n, 1), then all coefficients are verified.
    """
    if not beta:
        return True, Series.zero(one_letter_alphabet(), 0)
    degrees = sorted({sum(k) for k in beta})
    if min(degrees) < 2:
        return False, None
    top = max(degrees)
    gamma_terms = {}
    for n in range(2, top + 1):
        c = beta.get((n - 1, 1), 0)
        if c:
            gamma_terms[bytes(n)] = -Fraction(c, comb(n, 1))
    expected = {}
    for word, g in gamma_terms.items():
        n = len(word)
        # gamma(x0) + gamma(x1) - gamma(x0+x1)
        _iadd(expected, (n, 0), g)
        _iadd(expected, (0, n), g)
        for i in range(n + 1):
            _iadd(expected, (i, n - i), -g * comb(n, i))
    if expected != dict(beta):
        return False, None
    gamma = Series(one_letter_alphabet(), top, gamma_terms, _clean=False)
    return True, gamma


def ihara_derivation(psi, f):
    """d_psi: the derivation with d(x0) = 0, d(x1) = [x1, psi], applied to f."""
    mw = min(f.max_weight, psi.max_weight)
    return apply_derivation((None, letter_bracket(1, psi, mw)), f, mw)


def ihara_bracket(psi1, psi2):
    """{psi1, psi2} = d_psi2(psi1) - d_psi1(psi2) - [psi1, psi2]."""
    if not (is_lie_series(psi1) and is_lie_series(psi2)):
        raise ValueError("Ihara bracket needs Lie series inputs")
    return (ihara_derivation(psi2, psi1) - ihara_derivation(psi1, psi2)
            - lie_bracket(psi1, psi2))


def change_of_variable(psi):
    """psi(-x0-x1, x1).  The map x0 -> -x0-x1, x1 -> x1 is its own inverse
    and an automorphism of the free Lie algebra, so eta = psi(-x0-x1, x1)
    and psi = eta(-x0-x1, x1)."""
    return substitute(psi, AT_MINUS_SUM_X1)


def _c4_in_eta(eta):
    """mu(eta) - g(x0+x1, 0) + g + g(x1, 0) with g = d^R_1(eta): the
    change-of-variable form of the coaction equation, written on eta."""
    g = fox_derivative(eta, "x1", "right")
    return (reduced_coaction(eta) - substitute(g, AT_SUM_ZERO) + g
            + substitute(g, AT_X1_ZERO))


def c4_functionals(weight):
    """`_c4_in_eta` on eta of a weight as a family of functionals for
    `solve_space`, keyed by output word v of length w - 1: the transpose of
    its three parts.  The row at v is

        sum_u r u  +  x1 v  -  x1 x0^(w-1)  (the last term not at v = x1^(w-1)),

    u running over the words that are v with one letter of a run of length r
    doubled (mu contracts each of the r adjacent pairs of u's longer run to
    v), x1 v from g = d^R_1(eta), and x1 x0^(w-1) from -g(x0+x1, 0), which
    reads g[x0^(w-1)] at every v, and g(x1, 0), which gives it back at
    x1^(w-1)."""
    alphabet = two_letter_alphabet()
    corner = b"\x01" + bytes(weight - 1)
    for v in map(bytes, product((0, 1), repeat=weight - 1)):
        row, start = {}, 0
        for end in range(1, weight):
            if end == weight - 1 or v[end] != v[start]:
                _iadd(row, v[:end] + v[end - 1:], end - start)
                start = end
        _iadd(row, b"\x01" + v, 1)
        if any(b != 1 for b in v):
            _iadd(row, corner, -1)
        yield v, Series(alphabet, weight, row, _clean=False)


def c4_residual(psi):
    """Residual of the change-of-variable form of the coaction equation on
    psi, through eta = psi(-x0-x1, x1)."""
    return _c4_in_eta(change_of_variable(psi))


def solve_in_eta(weight, constraints, space):
    """The skew Lie series psi of a weight whose eta = psi(-x0-x1, x1)
    satisfies the given constraints, as a canonical SolutionSpace.

    The constraints are solved on eta in Lyndon coordinates, where a unit
    word is never expanded through the change of variable; only the few
    solutions are mapped back to psi, and skew symmetry (which the change of
    variable does not preserve) cuts that space.  This is the space the
    joint solve of skew symmetry and the psi-form constraints returns.
    Each solution is scaled to integer coefficients before it is mapped
    back, as the solved-space chart scales its columns; the canonical basis
    rescales, so the space is unchanged."""
    etas = solve_space(weight, constraints, space=space).basis
    psis = SolutionSpace(space, weight, [change_of_variable(e)
                                         for e in integer_multiples(etas)])
    return solve_space(weight, [skew_functionals(weight)], space=space, chart=psis)
