"""Exact rational linear algebra: fraction-free elimination, kernels, spans.

``rref`` is the one elimination: a Bareiss forward pass over big integers
(rows are scaled to integers first) and a back pass that fills in the
free columns of the reduced rows.  Kernels and span tests read off it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _integer_rows(rows):
    """Scale each row by the lcm of its denominators and divide by the gcd."""
    out = []
    for row in rows:
        den = 1
        for v in row:
            if isinstance(v, Fraction):
                den = den * v.denominator // gcd(den, v.denominator)
        ints = [int(v * den) if isinstance(v, Fraction) else int(v) * den
                for v in row]
        g = 0
        for v in ints:
            g = gcd(g, v)
        if g > 1:
            ints = [v // g for v in ints]
        out.append(ints)
    return out


def _bareiss_echelon(rows, cols):
    """Fraction-free forward elimination; returns (echelon rows, pivot cols)."""
    m = [r[:] for r in rows]
    pivots = []
    prev = 1
    r = 0
    for c in range(cols):
        pr = None
        for i in range(r, len(m)):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        for i in range(r + 1, len(m)):
            if not any(m[i][c:]):
                continue
            mic = m[i][c]
            row_i = m[i]
            row_r = m[r]
            for j in range(c, cols):
                row_i[j] = (piv * row_i[j] - mic * row_r[j]) // prev
        prev = piv
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def rref(rows):
    """Reduced row echelon form; returns (rows of Fractions, pivot cols).

    Zero rows are dropped and pivots are normalized to 1, so the output is a
    canonical basis of the row span.  With E the Bareiss echelon rows and d
    its last pivot, every entry of the reduced form is an integer over d
    (Cramer's rule), so the back pass finds the free-column numerators
    N[i][fc] = (d E[i][fc] - sum_{k>i} E[i][p_k] N[k][fc]) / E[i][p_i] by
    exact integer division, and each entry costs one Fraction.  N[i][p_i] is
    d and N[i][p_k] is 0 for k != i.
    """
    cols = len(rows[0]) if rows else 0
    ech, pivots = _bareiss_echelon(_integer_rows(rows), cols)
    if not pivots:
        return [], []
    d = ech[-1][pivots[-1]]
    pivset = set(pivots)
    free = [c for c in range(cols) if c not in pivset]
    nums = [None] * len(pivots)  # d times the reduced rows
    for i in range(len(pivots) - 1, -1, -1):
        row, p = ech[i], pivots[i]
        later = [(row[pk], nums[k]) for k, pk in enumerate(pivots[i + 1:], i + 1)
                 if row[pk]]
        num = nums[i] = [0] * cols
        num[p] = d
        for fc in free:
            if fc > p:
                s = d * row[fc]
                for e, nk in later:
                    s -= e * nk[fc]
                num[fc] = s // row[p]
    return [[Fraction(v, d) if v else _ZERO for v in num] for num in nums], pivots


def kernel_basis(rows):
    """Reduced basis of the right kernel of a matrix given as a row list.

    The basis is the standard free-column parametrization read off ``rref``:
    one vector per free column fc, with entry 1 there, 0 at the other free
    columns and -R[i][fc] at pivot p_i; vectors are returned in free-column
    order as tuples of Fractions.
    """
    cols = len(rows[0]) if rows else 0
    red, pivots = rref(rows)
    pivset = set(pivots)
    basis = []
    for fc in range(cols):
        if fc in pivset:
            continue
        vec = [_ZERO] * cols
        vec[fc] = _ONE
        for row, p in zip(red, pivots):
            vec[p] = -row[fc]
        basis.append(tuple(vec))
    return basis


def span_contains(echelon, pivots, vec):
    """Whether vec lies in the span of an ``rref`` basis."""
    v = [Fraction(x) for x in vec]
    for row, p in zip(echelon, pivots):
        if v[p]:
            f = v[p]
            v = [a - f * b for a, b in zip(v, row)]
    return not any(v)
