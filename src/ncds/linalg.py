"""Exact rational linear algebra: one certified elimination, read two ways,
and a one-prime rank bound.

``_reduced_form`` finds the reduced row echelon form R of a matrix: its
pivots, its free columns, and each reduced row's free-column entries over
one common denominator.  ``rref`` reads R as rows (for canonical bases, the
span tests and ``braid.express_chord``); ``kernel_basis`` reads it as the
reduced free-column kernel basis, 1 at free column fc and -R[c][fc] at each
pivot c (for the solver).  ``rank_mod_p`` bounds a kernel's dimension from
above without solving it (the rank bound below).

The elimination works modulo primes, those below 2^61 taken downward from
the Mersenne prime 2^61 - 1 (``_primes``, a fixed sequence).  It drops zero
rows and rows that repeat up to sign; if m > k = cols + 8 distinct rows
remain, it selects only every (m // k)-th of them.

- Mod-p pass.  Each selected row is packed into one int, one slot per
  column (17 bytes) holding its entry mod p, so a row operation is one
  big-int multiply-add (Kronecker substitution; Dumas, Fousse and Salvy,
  J. Symb. Comput. 46, 2011).  Slots never go negative and are reduced mod
  p only when read: a row becomes a pivot row, and an echelon row is
  reduced, from its unpacked slots.  Gauss-Jordan mod p gives R mod p, and
  with it the free-column kernel basis mod p.  One echelon is kept per
  prime.
- Lift.  The reduced rows mod the kept primes are combined by CRT into one
  mod their product M, and each entry is lifted to a fraction a/b with
  |a|, b <= sqrt(M/2) by rational reconstruction (Wang, Guy and Davenport,
  SIGSAM Bull. 16, 1982).  Over one prime the CRT is the identity.  An
  entry is first tried over the denominator found so far.
- Certificate.  The kernel vectors, scaled by the common denominator, are
  checked exactly against every distinct row without being built.

Why the output is the one full elimination over Q gives, for every M: a
rank mod p is at most the rank over Q, so nullity_Q(A) <= nullity_Q(A_S) <=
nullity_p(A_S), the number of lifted vectors.  They are independent (the
vector for free column fc is 1 there and 0 at the other free columns), so if
A annihilates them all they are a basis of ker_Q(A); and the vector for fc
is also zero right of fc, a shape that only the reduced free-column basis of
ker_Q(A) has.  Then the rows of R lie in ker_Q(A)^perp, the row space of
A, and are rank many in reduced echelon shape: they are its reduced form.

Rows that fail the check join the selection (at most k in the first repair
round, a budget that doubles each round) and are reduced into the echelon
of every kept prime; the rows eliminated before are not eliminated again.
If every selected row passes, the lifted basis is the exact kernel of the
selection, so a failing row lies outside the selection's row space.  If an
entry does not lift or a selected row fails, the lift was wrong.  The
distinct rows are then checked mod p against the mod-p kernel of the first
kept prime, and those that fail (rows outside the selection's row space mod
p) make the repair round.  If none fail, the selection is right and only M
is too small: a CRT round eliminates the selection mod the next prime.
After every round a prime whose pivot set is not the best of the kept ones
is dropped as unlucky; the best set has the most pivots and, among sets of
that size, is the lexicographically smallest.

Why the rounds end.  Let S be the selection, r its rank over Q, P its pivot
set over Q, and H the Hadamard bound of S (the product of its row norms),
which bounds every minor of S.  A prime is lucky if its pivot set is P.
- P is the best set any prime can give.  The pivots left of column j count
  the rank of the first j columns, and that rank mod p is at most the rank
  over Q, so mod p the i-th pivot is at or right of the i-th pivot of P.
  So a lucky prime is never dropped, and once one is kept all kept are.
- A lucky prime gives the residues of the kernel over Q.  It does not
  divide the minor D on P of some r rows of S, and every row of S is D^-1
  times an integer combination of those rows, so mod p the selection has
  the reduction of its reduced form over Q.  An unlucky prime divides every
  such D, so the unlucky primes multiply to at most H: there are at most
  log2(H)/60 of them.
- Each entry of the kernel over Q is a quotient of r x r minors of S, a/b
  with |a|, b <= H.  The kept primes share one pivot set, so once their
  product M > 2H^2 they are lucky, and every entry lifts, to its value.
  Then every selected row passes, and the check either certifies the basis
  or names rows not selected before.
Every CRT round but at most log2(H)/60 keeps one more lucky prime, so M
passes 2H^2 after finitely many; each repair round adds rows not selected
before; so the rounds end, at worst with every row selected.
The selection and the primes are deterministic: no random numbers, no seed.

Rank bound.  ``rank_mod_p`` reduces integer rows into one mod-p echelon
(p = 2^61 - 1) through the same packed pass, 16 rows at a time, with no
back pass, no lift and no check, and stops once the rank reaches a target.
It proves an upper bound and nothing else.  A rank mod p is at most the rank
over Q, and a row subset S of A has at most the rank of A, so for whatever
rows it read nullity_Q(A) <= nullity_Q(A_S) <= nullity_p(A_S) = cols minus
its result.  ``lie.spans_kernel`` pairs the bound with an exact inclusion:
d independent vectors that A annihilates, and a result of cols - d, prove
that they span ker_Q(A).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import compress, islice
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


_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)  # the primes below 41


@lru_cache(maxsize=None)
def _is_prime(n):
    """Miller-Rabin with the prime bases up to 37, which is exact for every
    n below 3.1 * 10^23 (Sorenson and Webster, Math. Comp. 86, 2017).
    Cached: every kernel starts its sequence at 2^61 - 1."""
    if n < 41:
        return n in _BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes():
    """The primes below 2^61, downward from 2^61 - 1."""
    n = (1 << 61) - 1
    while True:
        if _is_prime(n):
            yield n
        n -= 2


def _slot_bytes(cols):
    """Bytes per slot of a packed row.  A slot starts below p < 2^61 and
    takes at most one multiply-add below p^2 per pivot, so it stays below
    (cols + 1) p^2 and never carries into the next slot (17 bytes while
    cols < 2^14 - 1)."""
    return (2 * 61 + (cols + 1).bit_length() + 7) // 8


def _pack(values, nb):
    """Values in [0, 2^(8 nb)) as one int, value j in slot j of nb bytes."""
    return int.from_bytes(b"".join([v.to_bytes(nb, "little") for v in values]),
                          "little")


def _unpack(x, n, nb, p):
    """The n slots of a packed int, each reduced mod p."""
    b = x.to_bytes(n * nb, "little")
    from_bytes = int.from_bytes
    return [from_bytes(b[i:i + nb], "little") % p for i in range(0, n * nb, nb)]


def _eliminate_mod_p(echelon, rows, cols, nb, p):
    """Reduce integer rows mod p into an echelon, a dict pivot column ->
    packed row from its pivot on (slot 0 holds 1, every slot is in [0, p)).

    A row is read one column at a time from its low end, shifting the read
    slot out: a pivot column is cleared by adding p - v times the pivot row,
    and the first other column whose slot is not 0 mod p becomes a pivot,
    its row normalized from its unpacked slots.
    """
    width = 8 * nb
    mask = (1 << width) - 1
    for row in rows:
        cur = _pack([v % p for v in row], nb)
        for c in range(cols):
            if not cur:
                break
            v = (cur & mask) % p
            if v:
                piv = echelon.get(c)
                if piv is None:
                    inv = pow(v, -1, p)
                    tail = _unpack(cur, cols - c, nb, p)
                    echelon[c] = _pack([x * inv % p for x in tail], nb)
                    break
                cur += (p - v) * piv
            cur >>= width


def _lift(u, m):
    """The fraction a/b = u mod m with |a|, b <= sqrt(m/2), or None (Wang's
    rational reconstruction: the extended Euclidean algorithm on m and u,
    stopped at the first remainder within the bound)."""
    bound = isqrt(m // 2)
    r0, r1, t0, t1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > bound:
        return None
    return Fraction(r1, t1)


def _back_pass(echelon, cols, nb, p):
    """The free columns and, per pivot c, the free-column slots of the
    reduced row of c mod p, packed.

    The pivots are taken from the right: the echelon row of c is unpacked,
    and its reduced row is its own free-column slots minus, for each later
    pivot k, its entry at k times the reduced row of k, one multiply-add per
    pair, reduced mod p and packed once.
    """
    pivots = sorted(echelon)
    free = [c for c in range(cols) if c not in echelon]
    packed = {}
    for j in range(len(pivots) - 1, -1, -1):
        c = pivots[j]
        row = _unpack(echelon[c], cols - c, nb, p)
        acc = sum((p - row[k - c]) * packed[k] for k in pivots[j + 1:] if row[k - c])
        # the c - j free columns left of c hold 0
        own = [0] * (c - j) + [row[fc - c] for fc in free[c - j:]]
        packed[c] = _pack([(u + v) % p for u, v in
                           zip(own, _unpack(acc, len(free), nb, p))], nb)
    return free, packed


def _reduce(p, echelon, rows, cols, nb):
    """Eliminate rows into the echelon mod p; returns the prime's pass
    (p, echelon, free columns, packed back pass)."""
    _eliminate_mod_p(echelon, rows, cols, nb, p)
    return (p, echelon) + _back_pass(echelon, cols, nb, p)


def _lucky(passes):
    """The passes whose pivot set is the best of them: the most pivots, and
    among sets of that size the lexicographically smallest."""
    profiles = [(-len(echelon), sorted(echelon)) for _, echelon, _, _ in passes]
    best = min(profiles)
    return [q for q, profile in zip(passes, profiles) if profile == best]


def _lifted_form(passes, nb):
    """The reduced rows of the passes, which share one pivot set, combined
    by CRT and lifted: (den, nums), nums[i] the free-column entries of the
    i-th pivot's reduced row times their common denominator den; None if an
    entry does not lift.  An entry u is first read over the den so far: if
    u den mod m is within the bound, it is the numerator (lifts are unique).
    """
    (m, _, free, packed), *rest = passes
    reduced = {c: _unpack(x, len(free), nb, m) for c, x in packed.items()}
    for p, _, _, other in rest:
        inv = pow(m, -1, p)
        for c, r in reduced.items():
            reduced[c] = [u + m * ((v - u) * inv % p)
                          for u, v in zip(r, _unpack(other[c], len(free), nb, p))]
        m *= p
    bound = isqrt(m // 2)
    den = 1
    nums = []
    for c in sorted(reduced):
        row = []
        nums.append(row)
        for u in reduced[c]:
            a = u * den % m
            if a > bound:
                a -= m
            if a < -bound or den > bound:
                f = _lift(u, m)
                if f is None:
                    return None
                g = f.denominator // gcd(den, f.denominator)
                if g > 1:
                    for done in nums:
                        done[:] = [v * g for v in done]
                    den *= g
                a = f.numerator * (den // f.denominator)
            row.append(a)
    return den, nums


def _failing_mod_p(rows, free, packed, nb, p):
    """The rows whose product with some kernel vector of a back pass is not
    0 mod p: row . v_fc = row[fc] - sum_c row[c] R_c[fc], all free columns
    in one packed sum."""
    failing = []
    for row in rows:
        acc = _pack([row[fc] % p for fc in free], nb)
        for c, x in packed.items():
            e = row[c] % p
            if e:
                acc += (p - e) * x
        if any(_unpack(acc, len(free), nb, p)):
            failing.append(row)
    return failing


def _failing_exactly(rows, pivots, free, den, nums):
    """The rows whose product with some kernel vector is not 0.  Scaled by
    den, the vector of the t-th free column is den there and -nums[i][t] at
    the i-th pivot, so a row's products s_t are read at once as the sum of
    s_t X^t, with the row's free entries and each nums[i] packed in base X.
    Packing adds X/2 to each value, and X exceeds twice every |s_t|, so the
    sum is 0 only if each s_t is."""
    amax = max(max(map(max, rows), default=0), -min(map(min, rows), default=0))
    nmax = max((max(map(abs, num), default=0) for num in nums), default=0)
    nb = (amax.bit_length() + (den + len(nums) * nmax).bit_length() + 9) // 8
    half = 1 << (8 * nb - 1)
    offset = _pack([half] * len(free), nb)
    qs = [_pack([v + half for v in num], nb) - offset for num in nums]
    pivset = set(pivots)
    is_pivot = [c in pivset for c in range(len(pivots) + len(free))]
    is_free = [not v for v in is_pivot]
    return [row for row in rows
            if den * (_pack([v + half for v in compress(row, is_free)], nb) - offset)
            != sum(map(mul, compress(row, is_pivot), qs))]


def _reduced_form(rows):
    """The reduced row echelon form of a matrix given as a row list, by the
    certified multimodular elimination of the module docstring: (pivots,
    free columns, den, nums), nums[i] the entries of the reduced row of
    pivots[i] at the free columns times their common denominator den."""
    cols = len(rows[0]) if rows else 0
    distinct = _distinct_rows(rows)
    k = cols + 8
    step = max(1, len(distinct) // k)
    selected = distinct[::step]
    budget = k
    nb = _slot_bytes(cols)
    primes = _primes()
    passes = [_reduce(next(primes), {}, selected, cols, nb)]
    while True:
        passes = _lucky(passes)
        p, echelon, free, packed = passes[0]
        pivots = sorted(echelon)
        form = _lifted_form(passes, nb)
        if form is not None:
            failing = _failing_exactly(distinct, pivots, free, *form)
        if form is None or not set(failing).isdisjoint(selected):
            failing = _failing_mod_p(distinct, free, packed, nb, p)
            if not failing:
                passes.append(_reduce(next(primes), {}, selected, cols, nb))
                continue
        if not failing:
            return (pivots, free) + form
        added = failing[:budget]
        selected += added
        budget *= 2
        passes = [_reduce(p, echelon, added, cols, nb)
                  for p, echelon, _, _ in passes]


def rank_mod_p(rows, cols, target):
    """The rank mod p = 2^61 - 1 of integer rows over cols columns, read and
    reduced 16 at a time into one echelon, or the rank of the rows read so
    far once it reaches target (the rank bound of the module docstring).
    rows may be lazy: rows after the stop are never formed."""
    p = next(_primes())
    nb = _slot_bytes(cols)
    echelon = {}
    rows = iter(rows)
    while len(echelon) < target:
        chunk = list(islice(rows, 16))
        if not chunk:
            break
        _eliminate_mod_p(echelon, _integer_rows(chunk), cols, nb, p)
    return len(echelon)


def rref(rows):
    """Reduced row echelon form: (rows of Fractions, pivot columns), zero
    rows dropped and pivots normalized to 1, a canonical basis of the row
    span."""
    pivots, free, den, nums = _reduced_form(rows)
    out = []
    for c, num in zip(pivots, nums):
        row = [_ZERO] * (len(pivots) + len(free))
        row[c] = _ONE
        for fc, v in zip(free, num):
            if v:
                row[fc] = Fraction(v, den)
        out.append(row)
    return out, pivots


def kernel_basis(rows):
    """Reduced basis of the right kernel of a matrix given as a row list:
    per free column fc of its reduced row echelon form R, in order, the
    tuple of Fractions with 1 at fc, 0 at the other free columns and
    -R[c][fc] at each pivot c."""
    pivots, free, den, nums = _reduced_form(rows)
    basis = []
    for t, fc in enumerate(free):
        vec = [_ZERO] * (len(pivots) + len(free))
        vec[fc] = _ONE
        for c, num in zip(pivots, nums):
            if num[t]:
                vec[c] = Fraction(-num[t], den)
        basis.append(tuple(vec))
    return basis
