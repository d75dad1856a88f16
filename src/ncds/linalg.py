"""Exact rational linear algebra: fraction-free elimination, kernels, spans.

The forward pass is Bareiss-style over big integers (rows are scaled to
integers first); back-substitution and the reduced echelon forms are over
``fractions.Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


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


def kernel_basis(rows):
    """Reduced basis of the right kernel of a matrix given as a row list.

    The basis is the standard free-column parametrization: one vector per
    free column, with entry 1 there and 0 at the other free columns; vectors
    are returned in free-column order as tuples of Fractions.
    """
    cols = len(rows[0]) if rows else 0
    if not cols:
        return []
    ech, pivots = _bareiss_echelon(_integer_rows(rows), cols)
    pivset = set(pivots)
    free = [c for c in range(cols) if c not in pivset]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * cols
        vec[fc] = Fraction(1)
        for i in range(len(pivots) - 1, -1, -1):
            pc = pivots[i]
            s = Fraction(0)
            row = ech[i]
            for j in range(pc + 1, cols):
                if row[j] and vec[j]:
                    s += row[j] * vec[j]
            vec[pc] = -s / row[pc]
        basis.append(tuple(vec))
    return basis


def rref(rows):
    """Reduced row echelon form over Fraction; returns (rows, pivot cols).

    Zero rows are dropped and pivots are normalized to 1, so the output is a
    canonical basis of the row span.
    """
    m = [[Fraction(v) for v in row] for row in rows]
    cols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(cols):
        pr = None
        for i in range(r, len(m)):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        m[r] = [v / piv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def reduce_vector(echelon, pivots, vec):
    """Residual of vec after reduction against an rref basis."""
    v = [Fraction(x) for x in vec]
    for row, p in zip(echelon, pivots):
        if v[p]:
            f = v[p]
            v = [a - f * b for a, b in zip(v, row)]
    return v


def span_contains(echelon, pivots, vec):
    return not any(reduce_vector(echelon, pivots, vec))
