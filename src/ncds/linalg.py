"""Exact rational linear algebra: fraction-free elimination, kernels, spans.

``rref`` is the one elimination: a Bareiss forward pass over big integers
(rows are scaled to integers first) and a back pass that fills in the
free columns of the reduced rows.  Kernels and span tests read off it.

``kernel_basis`` does not eliminate a tall matrix whole.  It drops zero
rows and rows that repeat up to sign; if m > k = cols + 8 distinct rows
remain, it eliminates only every (m // k)-th of them, then checks each
kernel vector, scaled to integers, against every distinct row.  ker(A) lies
in ker(A_S) for any row selection S, so a basis that every row annihilates
is a certificate that the kernels, hence the row spaces and their reduced
forms, are equal: the output is the one full elimination gives.  Rows that
fail join the selection (at most k in the first repair round, a budget
that doubles each round) and the selection is eliminated again.  A failing
row lies outside the selection's row space, so each round raises the rank
and the rounds end, at worst with every row selected.  The selection is
deterministic: no random numbers, no seed.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _integer_rows(rows):
    """Scale each row by the lcm of its denominators and divide by the gcd.

    Entries are ints or Fractions; both carry ``numerator``/``denominator``.
    """
    out = []
    for row in rows:
        den = lcm(*[v.denominator for v in row])
        if den == 1:
            ints = [v.numerator for v in row]
        else:
            ints = [v.numerator * (den // v.denominator) for v in row]
        g = gcd(*ints)
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


def _distinct_rows(rows):
    """Integer rows as tuples, without zero rows and without repeats up to
    sign, each with a positive leading entry, in order of first appearance."""
    seen = {}
    for row in _integer_rows(rows):
        lead = next((v for v in row if v), 0)
        if lead:
            seen[tuple(row) if lead > 0 else tuple(-v for v in row)] = None
    return list(seen)


def kernel_basis(rows):
    """Reduced basis of the right kernel of a matrix given as a row list.

    The basis is the standard free-column parametrization read off ``rref``:
    one vector per free column fc, with entry 1 there, 0 at the other free
    columns and -R[i][fc] at pivot p_i; vectors are returned in free-column
    order as tuples of Fractions.  Tall matrices go through the certified
    row selection of the module docstring.
    """
    cols = len(rows[0]) if rows else 0
    distinct = _distinct_rows(rows)
    k = cols + 8
    step = max(1, len(distinct) // k)
    selected = distinct[::step]
    budget = k
    while True:
        red, pivots = rref(selected)
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
        if len(selected) == len(distinct):
            return basis
        checks = _integer_rows(basis)
        failing = [row for row in distinct
                   if any(sum(map(mul, row, v)) for v in checks)]
        if not failing:
            return basis
        selected += failing[:budget]
        budget *= 2


def span_contains(echelon, pivots, vec):
    """Whether vec lies in the span of an ``rref`` basis."""
    v = [Fraction(x) for x in vec]
    for row, p in zip(echelon, pivots):
        if v[p]:
            f = v[p]
            v = [a - f * b for a, b in zip(v, row)]
    return not any(v)
