"""Racinet's double shuffle side: the projection to the y-variable algebra,
the corrected series, the stuffle coproduct, the quasi-shuffle permutation
sets Sh^{<=(k,l)}, and the dmr_0 space.

Indices are tuples of positive integers.  An index (a_1, ..., a_k) pairs with
the word x0^(a_k - 1) x1 ... x0^(a_1 - 1) x1, so its y-word is
y_{a_k} ... y_{a_1}; evaluation of the one-variable functionals below follows
that convention throughout.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from . import InputError
from .lie import is_lie_series, primitivity_defect, solve_space
from .series import Alphabet, Series, TensorSeries, _iadd


@lru_cache(maxsize=None)
def y_alphabet(max_weight):
    """Letters y1..yW; y_n for n > W is never needed.

    Racinet's y_n has weight n, but here every letter weighs 1.  No term is
    lost: every y-series is built from an x-series of weight <= W, and a
    y-word's length never exceeds its y-weight.
    """
    return Alphabet(tuple("y%d" % n for n in range(1, max_weight + 1)))


def y_word(index):
    """The word y_{a_k} ... y_{a_1} attached to an index."""
    return bytes(n - 1 for n in reversed(index))


def pi_y(psi):
    """Words ending in x0 die; x0^(n_m - 1) x1 ... x0^(n_1 - 1) x1 maps to
    (-1)^m y_{n_m} ... y_{n_1}."""
    mw = psi.max_weight
    ys = y_alphabet(mw)
    out = {}
    for w, c in psi.terms.items():
        if not w or w[-1] != 1:
            continue
        target = []
        run = 0
        for letter in w:
            if letter == 0:
                run += 1
            else:
                target.append(run)  # y_{run+1}, letter index run
                run = 0
        if (len(target) % 2) == 1:
            c = -c
        _iadd(out, bytes(target), c)
    return Series(ys, mw, out, _clean=False)


def psi_corr(psi):
    """sum_n (-1)^n / n * c_{x0^(n-1) x1}(psi) y1^n."""
    mw = psi.max_weight
    ys = y_alphabet(mw)
    out = {}
    for n in range(1, mw + 1):
        c = psi.coeff(b"\x00" * (n - 1) + b"\x01")
        if c:
            coef = Fraction((-1) ** n, n) * c
            if coef.denominator == 1:
                coef = int(coef)
            out[bytes(n)] = coef
    return Series(ys, mw, out, _clean=False)


def psi_star(psi):
    return psi_corr(psi) + pi_y(psi)


def stuffle_coproduct(f):
    """Delta_* y_n = sum_i y_i (x) y_{n-i} with y_0 = 1, extended to words as
    an algebra morphism for concatenation."""
    out = {}
    for w, c in f.terms.items():
        pairs = [(b"", b"", c)]
        for letter in w:
            n = letter + 1
            nxt = []
            for left, right, coef in pairs:
                for i in range(n + 1):
                    nl = left + bytes((i - 1,)) if i else left
                    nr = right + bytes((n - i - 1,)) if n - i else right
                    nxt.append((nl, nr, coef))
            pairs = nxt
        for left, right, coef in pairs:
            _iadd(out, (left, right), coef)
    return TensorSeries(f.alphabet, f.max_weight, out, _clean=False)


def dmr_residual(psi):
    """Delta_*(psi_*) - psi_* (x) 1 - 1 (x) psi_*; zero iff psi is in dmr_0
    (given the Lie and vanishing-linear-term preconditions)."""
    if psi.coeff(b"\x00") or psi.coeff(b"\x01"):
        raise InputError("dmr residual needs c_x0(psi) = c_x1(psi) = 0")
    if not is_lie_series(psi):
        raise InputError("dmr residual is defined for Lie series")
    return _dmr_residual_linear(psi)


def _dmr_residual_linear(psi):
    star = psi_star(psi)
    return TensorSeries(star.alphabet, star.max_weight,
                        primitivity_defect(star, stuffle_coproduct), _clean=False)


@lru_cache(maxsize=None)
def dmr_space(weight):
    """Lie series with vanishing linear terms whose corrected image is
    primitive for the stuffle coproduct.  Memoized for the life of the
    process, so dmr_0 is solved once per weight; the returned space is
    shared and must not be mutated."""
    if weight < 2:
        raise InputError("dmr space starts at weight 2")
    return solve_space(weight, [_dmr_residual_linear], space="dmr0")


# -- quasi-shuffle permutation sets -----------------------------------------

class StuffleSurjection(namedtuple("StuffleSurjection", "k l n values")):
    """Onto map {1..k+l} -> {1..n}, increasing on {1..k} and {k+1..k+l}."""

    __slots__ = ()


@lru_cache(maxsize=None)
def sh_le(k, l):
    """Complete enumeration of Sh^{<=(k,l)}."""
    if k < 1 or l < 1:
        raise ValueError("depths must be >= 1")
    out = []

    def walk(i, j, a_vals, b_vals):
        if i == k and j == l:
            n = max(a_vals[-1], b_vals[-1])
            out.append(StuffleSurjection(k, l, n, tuple(a_vals + b_vals)))
            return
        nxt = max(a_vals[-1] if a_vals else 0, b_vals[-1] if b_vals else 0) + 1
        if i < k:
            walk(i + 1, j, a_vals + [nxt], b_vals)
        if j < l:
            walk(i, j + 1, a_vals, b_vals + [nxt])
        if i < k and j < l:
            walk(i + 1, j + 1, a_vals + [nxt], b_vals + [nxt])

    walk(0, 0, [], [])
    return tuple(out)


def sigma_compose(sigma, a, b):
    """Composed index pair and variable tag for one quasi-shuffle surjection.

    Returns ((first, second), tag) with tag "xy" (second part empty),
    "x,y", or "y,x"; merged slots add their entries.
    """
    k, l, n = sigma.k, sigma.l, sigma.n
    if len(a) != k or len(b) != l:
        raise ValueError("index depths do not match the surjection")
    c = [0] * (n + 1)
    for pos, v in enumerate(sigma.values, start=1):
        c[v] += a[pos - 1] if pos <= k else b[pos - k - 1]
    sk, skl = sigma.values[k - 1], sigma.values[k + l - 1]
    if sk == n and skl == n:
        tag = "xy"
        j = n
    elif skl == n:
        tag = "x,y"
        j = sk
    else:
        tag = "y,x"
        j = skl
    return (tuple(c[1:j + 1]), tuple(c[j + 1:])), tag


def y_functional(index, f):
    """l_index on a y-series: the coefficient of the attached y-word."""
    return f.coeff(y_word(index))


def stuffle_product_words(u, v):
    """Quasi-shuffle product of two y-words (merged slots add indices);
    returns dict word -> multiplicity.  Used to cross-validate sh_le."""
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    out = {}
    for w, m in stuffle_product_words(u[1:], v).items():
        _iadd(out, u[:1] + w, m)
    for w, m in stuffle_product_words(u, v[1:]).items():
        _iadd(out, v[:1] + w, m)
    merged = bytes((u[0] + v[0] + 1,))
    for w, m in stuffle_product_words(u[1:], v[1:]).items():
        _iadd(out, merged + w, m)
    return out
