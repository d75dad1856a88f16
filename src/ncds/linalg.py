"""Exact rational linear algebra: fraction-free elimination and kernels.

``rref`` is the exact elimination: a Bareiss forward pass over big integers
(rows are scaled to integers first) and a back pass that fills in the
free columns of the reduced rows.  Canonical bases (and through them the
span tests) and ``braid.express_chord`` read off it, and it is
``kernel_basis``'s fallback.

``kernel_basis`` does not eliminate a tall matrix whole, and it eliminates
modulo the prime p = 2^61 - 1.  It drops zero rows and rows that repeat up
to sign; if m > k = cols + 8 distinct rows remain, it selects only every
(m // k)-th of them.

- Mod-p pass.  Each selected row is packed into one int, one slot per
  column (17 bytes) holding its entry mod p, so a row operation is one
  big-int multiply-add (Kronecker substitution; Dumas, Fousse and Salvy,
  J. Symb. Comput. 46, 2011).  Slots never go negative and are reduced mod
  p only when read.  Gauss-Jordan mod p gives the free-column kernel basis
  mod p.
- Lift.  Each entry is lifted to a fraction a/b with |a|, b <= sqrt(p/2) by
  rational reconstruction (Wang, Guy and Davenport, SIGSAM Bull. 16, 1982).
- Certificate.  Each lifted vector, scaled to integers, is checked exactly
  against every distinct row.

Why the output is the one full elimination over Q gives, for every p: a
rank mod p is at most the rank over Q, so nullity_Q(A) <= nullity_Q(A_S) <=
nullity_p(A_S), the number of lifted vectors.  They are independent (the
vector for free column fc is 1 there and 0 at the other free columns), so if
A annihilates them all they are a basis of ker_Q(A); and the vector for fc
is also zero right of fc, a shape that only the reduced free-column basis of
ker_Q(A) has.

Rows that fail the check join the selection (at most k in the first repair
round, a budget that doubles each round) and are reduced against the
echelon so far; the rows eliminated before are not eliminated again.  If
every selected row passes, the lifted basis is the exact kernel of the
selection, so a failing row lies outside the selection's row space.  If an
entry does not lift or a selected row fails, the lift was wrong: an
entry of the selection's kernel is wider than the lift bound, or p is
unlucky.  The distinct rows are then checked mod p against the mod-p
kernel, and those that fail (rows outside the selection's row space mod p)
make the repair round.  If none fail, the current selection is eliminated
by ``rref`` instead, and so are the later rounds.  Each round adds rows not selected
before, so the rounds end, at worst with every row selected.  The
selection is deterministic: no random numbers, no seed.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _integer_rows(rows):
    """Scale each row by the lcm of its denominators and divide by the gcd.

    Entries are ints or Fractions.  A row of ints takes one ``gcd`` call;
    ``gcd`` rejects a Fraction, and only then are the denominators read.
    """
    out = []
    for row in rows:
        try:
            g = gcd(*row)
        except TypeError:
            den = lcm(*[v.denominator for v in row])
            row = [v.numerator * (den // v.denominator) for v in row]
            g = gcd(*row)
        out.append([v // g for v in row] if g > 1 else list(row))
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
    sign, each with a positive leading entry, in order of first appearance.
    Each row is scaled as it is read, so only the distinct rows are copied."""
    seen = {}
    for row in rows:
        if not any(row):
            continue
        row, = _integer_rows((row,))
        lead = next(v for v in row if v)
        seen[tuple(row) if lead > 0 else tuple(-v for v in row)] = None
    return list(seen)


_P = (1 << 61) - 1  # a Mersenne prime
_LIFT = isqrt(_P // 2)  # a/b mod p with |a|, b <= _LIFT is unique


def _slot_bytes(cols):
    """Bytes per slot of a packed row.  A slot starts below p and takes at
    most one multiply-add below p^2 per pivot, so it stays below
    (cols + 1) p^2 and never carries into the next slot (17 bytes while
    cols < 2^14 - 1)."""
    return (2 * 61 + (cols + 1).bit_length() + 7) // 8


def _pack(values, nb):
    """Values in [0, p) as one int, value j in slot j of nb bytes."""
    return int.from_bytes(b"".join([v.to_bytes(nb, "little") for v in values]),
                          "little")


def _unpack(x, n, nb):
    """The n slots of a packed int, each reduced mod p."""
    b = x.to_bytes(n * nb, "little")
    return [int.from_bytes(b[i:i + nb], "little") % _P
            for i in range(0, n * nb, nb)]


def _eliminate_mod_p(echelon, rows, cols, nb):
    """Reduce integer rows mod p into an echelon, a dict pivot column ->
    packed row from its pivot on (slot 0 holds 1, every slot is in [0, p)).

    A row is read one column at a time from its low end, shifting the read
    slot out: a pivot column is cleared by adding p - v times the pivot row,
    and the first other column whose slot is not 0 mod p becomes a pivot.
    """
    width = 8 * nb
    mask = (1 << width) - 1
    for row in rows:
        cur = _pack([v % _P for v in row], nb)
        for c in range(cols):
            if not cur:
                break
            v = (cur & mask) % _P
            if v:
                piv = echelon.get(c)
                if piv is None:
                    inv = pow(v, -1, _P)
                    echelon[c] = _pack([x * inv % _P
                                        for x in _unpack(cur, cols - c, nb)], nb)
                    break
                cur += (_P - v) * piv
            cur >>= width


def _lift(u):
    """The fraction a/b = u mod p with |a|, b <= _LIFT, or None (Wang's
    rational reconstruction: the extended Euclidean algorithm on p and u,
    stopped at the first remainder within the bound)."""
    r0, r1, t0, t1 = _P, u, 0, 1
    while r1 > _LIFT:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > _LIFT:
        return None
    return Fraction(r1, t1)


def _back_pass(echelon, cols, nb):
    """The free columns and, per pivot c, the free-column slots of the
    reduced row of c, packed.

    The pivots are taken from the right: the reduced row of c is its own
    free-column slots minus, for each later pivot k, its entry at k times
    the reduced row of k, one multiply-add per pair.  The kernel vector for
    free column fc is 1 at fc and -R_c[fc] at each pivot c.
    """
    pivots = sorted(echelon, reverse=True)
    free = [c for c in range(cols) if c not in echelon]
    packed = {}
    for i, c in enumerate(pivots):
        row = _unpack(echelon[c], cols - c, nb)
        acc = _pack([row[fc - c] if fc > c else 0 for fc in free], nb)
        for k in pivots[:i]:
            e = row[k - c]
            if e:
                acc += (_P - e) * packed[k]
        packed[c] = _pack(_unpack(acc, len(free), nb), nb)
    return free, packed


def _lifted_basis(free, packed, cols, nb):
    """The kernel vectors of a back pass with each entry lifted to a
    fraction, in free-column order; None if an entry does not lift."""
    reduced = {c: _unpack(x, len(free), nb) for c, x in packed.items()}
    basis = []
    for t, fc in enumerate(free):
        vec = [_ZERO] * cols
        vec[fc] = _ONE
        for c, r in reduced.items():
            if r[t]:
                vec[c] = _lift(_P - r[t])
                if vec[c] is None:
                    return None
        basis.append(tuple(vec))
    return basis


def _failing_mod_p(rows, free, packed, nb):
    """The rows whose product with some kernel vector of a back pass is not
    0 mod p: row . v_fc = row[fc] - sum_c row[c] R_c[fc], all free columns
    in one packed sum."""
    failing = []
    for row in rows:
        acc = _pack([row[fc] % _P for fc in free], nb)
        for c, x in packed.items():
            e = row[c] % _P
            if e:
                acc += (_P - e) * x
        if any(_unpack(acc, len(free), nb)):
            failing.append(row)
    return failing


def _failing_exactly(rows, basis):
    """The rows whose product with some basis vector is not 0."""
    checks = _integer_rows(basis)
    return [row for row in rows if any(sum(map(mul, row, v)) for v in checks)]


def _bareiss_kernel(rows, cols):
    """The free-column kernel basis read off ``rref``: 1 at fc, 0 at the
    other free columns and -R[i][fc] at pivot p_i."""
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


def kernel_basis(rows):
    """Reduced basis of the right kernel of a matrix given as a row list.

    The basis is the standard free-column parametrization: one vector per
    free column fc of the reduced row echelon form R, with entry 1 there, 0
    at the other free columns and -R[i][fc] at pivot p_i; vectors are
    returned in free-column order as tuples of Fractions.  It is found by
    the certified modular elimination of the module docstring.
    """
    cols = len(rows[0]) if rows else 0
    distinct = _distinct_rows(rows)
    k = cols + 8
    step = max(1, len(distinct) // k)
    selected = distinct[::step]
    added, budget = selected, k
    nb = _slot_bytes(cols)
    echelon = {}  # None once the selection is eliminated by rref instead
    while True:
        if echelon is not None:
            _eliminate_mod_p(echelon, added, cols, nb)
            free, packed = _back_pass(echelon, cols, nb)
            basis = _lifted_basis(free, packed, cols, nb)
            if basis is not None:
                failing = _failing_exactly(distinct, basis)
            if basis is None or not set(failing).isdisjoint(selected):
                failing = _failing_mod_p(distinct, free, packed, nb)
                if not failing:
                    echelon = None
        if echelon is None:
            basis = _bareiss_kernel(selected, cols)
            failing = _failing_exactly(distinct, basis)
        if not failing:
            return basis
        added = failing[:budget]
        selected += added
        budget *= 2
