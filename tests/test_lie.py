import random
from fractions import Fraction
from itertools import islice
from math import isqrt

import pytest

from ncds.lie import (SolutionSpace, TangentialDerivation, canonical_series_basis,
                      is_lie_series, is_skew, lie_bracket, lyndon_basis,
                      lyndon_words, primitivity_defect, series_span_contains,
                      series_spans_equal, skew_constraint, skew_functionals,
                      solve_space)
from ncds import lie, linalg
from ncds.linalg import kernel_basis, rref
from ncds.series import Series, letter_swap, shuffle_coproduct

from conftest import (X, all_words, callable_rows, family_rows, random_lie,
                      reference_kernel, reference_rref, space_bytes, unit_words,
                      x_series)

WITT_2_LETTERS = {1: 2, 2: 1, 3: 2, 4: 3, 5: 6, 6: 9, 7: 18, 8: 30}


class TestLyndon:
    def test_weight_1(self):
        basis = lyndon_basis(1)
        assert [w for w, _, _ in basis.elements] == [b"\x00", b"\x01"]
        assert basis.series() == [x_series({"0": 1}, 1), x_series({"1": 1}, 1)]

    def test_weight_2(self):
        basis = lyndon_basis(2)
        assert [w for w, _, _ in basis.elements] == [b"\x00\x01"]
        assert basis.series()[0] == x_series({"01": 1, "10": -1}, 2)

    def test_weight_3(self):
        basis = lyndon_basis(3)
        assert [w for w, _, _ in basis.elements] == [b"\x00\x00\x01", b"\x00\x01\x01"]
        # [x0,[x0,x1]] and [[x0,x1],x1]
        assert basis.series()[0] == x_series({"001": 1, "010": -2, "100": 1}, 3)
        assert basis.series()[1] == x_series({"011": 1, "101": -2, "110": 1}, 3)

    def test_witt_counts(self):
        for w, n in WITT_2_LETTERS.items():
            assert len(lyndon_words(w)) == n

    def test_elements_are_lie(self):
        for w in range(1, 7):
            for s in lyndon_basis(w).series():
                assert is_lie_series(s)


class TestLieBracket:
    def test_commutator(self):
        x0 = x_series({"0": 1}, 4)
        x1 = x_series({"1": 1}, 4)
        assert lie_bracket(x0, x1) == x_series({"01": 1, "10": -1}, 4)

    def test_antisymmetry(self, rng):
        f = random_lie(3, rng)
        assert lie_bracket(f, f).is_zero

    def test_nested(self):
        x0 = x_series({"0": 1}, 4)
        inner = x_series({"01": 1, "10": -1}, 4)
        assert lie_bracket(x0, inner) == x_series({"001": 1, "010": -2, "100": 1}, 4)

    def test_jacobi_random(self, rng):
        for _ in range(3):
            a = random_lie(2, rng)
            b = random_lie(3, rng)
            c = random_lie(2, rng)
            lhs = lie_bracket(a, lie_bracket(b, c)) \
                + lie_bracket(b, lie_bracket(c, a)) \
                + lie_bracket(c, lie_bracket(a, b))
            assert lhs.is_zero


class TestIsLie:
    def test_commutator_primitive(self):
        assert is_lie_series(x_series({"01": 1, "10": -1}, 3))

    def test_word_not_primitive(self):
        assert not is_lie_series(x_series({"01": 1}, 3))

    def test_zero(self):
        assert is_lie_series(Series.zero(X, 3))

    def test_dynkin_matches_shuffle_coproduct(self):
        # the Dynkin-Specht-Wever test against primitivity for the shuffle
        # coproduct, which shares no code with it, on seeded series
        rng = random.Random(20240911)

        def check(f, lie):
            assert is_lie_series(f) == (not primitivity_defect(f)) == lie

        check(Series.zero(X, 4), True)
        check(Series.unit(X, 4), False)
        for w in range(1, 9):
            for _ in range(2 if w > 6 else 4):
                f = random_lie(w, rng)
                check(f, True)
                word = bytes(rng.randrange(2) for _ in range(w))
                check(f + Series(X, w, {word: 1}), w == 1)
                check(f + Series.unit(X, w), False)
        for weights in ((1, 3), (2, 3, 5), (2, 4, 6)):
            mw = max(weights)
            f = Series.zero(X, mw)
            for w in weights:
                f = f + random_lie(w, rng, max_weight=mw)
            check(f, True)
            check(f + Series(X, mw, {b"\x00\x01": 1}), False)
            check(f + Series.unit(X, mw), False)


class TestIsSkew:
    def test_commutator(self):
        assert is_skew(x_series({"01": 1, "10": -1}, 3))

    def test_letter(self):
        assert not is_skew(x_series({"0": 1}, 3))

    def test_weight3_combination(self):
        basis = lyndon_basis(3)
        f = basis.series()[0] - letter_swap(basis.series()[0])
        # [x0,[x0,x1]] - [x1,[x1,x0]]; note [[x0,x1],x1] = [x1,[x1,x0]]
        assert is_skew(f)
        assert f == basis.series()[0] - basis.series()[1]


class TestKernelBasis:
    def test_identity(self):
        assert kernel_basis([[1, 0], [0, 1]]) == []

    def test_zero_matrix(self):
        assert len(kernel_basis([[0, 0, 0], [0, 0, 0]])) == 3

    def test_hand_elimination(self):
        basis = kernel_basis([[1, 1, 0], [0, 1, 1]])
        assert len(basis) == 1
        v = basis[0]
        assert [x / v[2] for x in v] == [1, -1, 1]

    def test_annihilation_and_idempotence(self, rng):
        for _ in range(5):
            rows = [[rng.randint(-3, 3) for _ in range(6)] for _ in range(4)]
            basis = kernel_basis(rows)
            for v in basis:
                for row in rows:
                    assert sum(a * b for a, b in zip(row, v)) == 0
            # rank-nullity, against the independent Gauss-Jordan
            _, pivots = reference_rref(rows)
            assert len(basis) == 6 - len(pivots)
            assert basis == reference_kernel(rows, 6)
            # re-solving the same span is stable
            again = kernel_basis(rows + rows)
            assert again == basis


def random_matrix(rng, n_rows, cols, rank, entries):
    """rank independent random rows and n_rows - rank random combinations of
    them in random order, then a zero row and a copy of the first row."""
    def entry():
        if entries == "int":
            return rng.randint(-4, 4)
        return Fraction(rng.randint(-4, 4), rng.randint(1, 5))
    base = []
    while len(reference_rref(base)[1]) < rank:
        base = [[entry() for _ in range(cols)] for _ in range(rank)]
    rows = list(base)
    for _ in range(n_rows - rank):
        coefs = [rng.randint(-2, 2) for _ in base]
        rows.append([sum((c * b[j] for c, b in zip(coefs, base)), 0)
                     for j in range(cols)])
    rng.shuffle(rows)
    return rows + [[0] * cols, list(rows[0])]


class TestEliminationAgainstReference:
    # kernel_basis eliminates a row selection once a matrix has more than
    # cols + 8 distinct rows: the 60 x 5 and 80 x 8 shapes reach that path
    @pytest.mark.parametrize("entries", ["int", "fraction"])
    @pytest.mark.parametrize("shape", [(9, 4), (2, 7), (5, 5), (60, 5), (80, 8)],
                             ids=["tall", "wide", "square", "tall60x5", "tall80x8"])
    def test_rref_and_kernel_match_gauss_jordan(self, rng, shape, entries):
        n_rows, cols = shape
        for rank in range(min(n_rows, cols) + 1):
            for _ in range(3):
                rows = random_matrix(rng, n_rows, cols, rank, entries)
                ref, ref_pivots = reference_rref(rows)
                assert len(ref_pivots) == rank
                assert rref(rows) == (ref, ref_pivots)
                assert kernel_basis(rows) == reference_kernel(rows, cols)

    def test_canonical_basis_shape_matches_gauss_jordan(self, rng):
        # 3 x 2000 Fraction rows, the shape rref meets in canonical bases:
        # free columns far outnumber the rank.  The kernel holds 4M entries,
        # so every vector is compared on its free column and the pivots, and
        # a spread of whole vectors (zero at the other free columns) with them
        cols = 2000
        for rank in range(4):
            rows = random_matrix(rng, 3, cols, rank, "fraction")
            ref, ref_pivots = reference_rref(rows)
            assert len(ref_pivots) == rank
            assert rref(rows) == (ref, ref_pivots)
            basis, want = kernel_basis(rows), reference_kernel(rows, cols)
            assert len(basis) == len(want) == cols - rank
            free = [c for c in range(cols) if c not in ref_pivots]
            for fc, vec, ref_vec in zip(free, basis, want):
                support = [fc] + ref_pivots
                assert [vec[j] for j in support] == [ref_vec[j] for j in support]
            for i in range(0, len(want), 97):
                assert basis[i] == want[i]

    def test_no_rows(self):
        assert rref([]) == ([], [])
        assert kernel_basis([]) == []
        assert kernel_basis([[0] * 5] * 40) == reference_kernel([[0] * 5], 5)

    @staticmethod
    def off_the_selection_rows():
        # 52 distinct rows over 5 columns select every 4th row (52 // 13);
        # those span only e1, e2, while the rows between them add e3, e4,
        # so the first kernel fails the check and a repair round must run
        rows = [[1, i, 0, 0, 0] if i % 4 == 0 else [0, 0, 1, i, 0]
                for i in range(52)]
        return rows + [[0] * 5, [-v for v in rows[5]], list(rows[8])]

    def test_rank_off_the_selection_is_repaired(self, monkeypatch):
        rows = self.off_the_selection_rows()
        calls = []
        eliminate = linalg._eliminate_mod_p
        def counted(echelon, added, cols, nb, p):
            calls.append(len(added))
            return eliminate(echelon, added, cols, nb, p)
        monkeypatch.setattr(linalg, "_eliminate_mod_p", counted)
        assert kernel_basis(rows) == reference_kernel(rows, 5)
        assert len(calls) >= 2 and calls[0] == 13

    def test_repair_round_eliminates_only_the_added_rows(self, monkeypatch):
        # round 2 reduces the failing rows it adds (a budget of 13 of the 39
        # rows off e1, e2) against the echelon of round 1, which it keeps
        rows = self.off_the_selection_rows()
        calls = []
        eliminate = linalg._eliminate_mod_p
        def counted(echelon, added, cols, nb, p):
            calls.append((sorted(echelon), list(added)))
            return eliminate(echelon, added, cols, nb, p)
        monkeypatch.setattr(linalg, "_eliminate_mod_p", counted)
        monkeypatch.setattr(linalg, "rref", None)
        assert kernel_basis(rows) == reference_kernel(rows, 5)
        (before1, round1), (before2, round2) = calls
        assert before1 == [] and before2 == [0, 1]
        assert len(round1) == len(round2) == 13
        assert all(row[2] == 0 for row in round1)
        assert all(row[2] == 1 for row in round2)

    def test_wide_selection_kernel_is_repaired_mod_p(self, monkeypatch):
        # the even rows, every 2nd of 24 (24 // 12), span (1, 0, X, 0) and
        # (0, 1, Y, 0): their kernel vector (-X, -Y, 1, 0) is far wider than
        # the lift bound, while each odd row adds e3 and the kernel of the
        # whole matrix is e4; the odd rows fail mod p, so a repair round
        # continues the echelon and rref is never called
        X, Y = 3 ** 35, 5 ** 21
        rows = [[1, i, X + i * Y + i % 2, 0] for i in range(24)]
        calls = []
        eliminate = linalg._eliminate_mod_p
        def counted(echelon, added, cols, nb, p):
            calls.append(list(added))
            return eliminate(echelon, added, cols, nb, p)
        monkeypatch.setattr(linalg, "_eliminate_mod_p", counted)
        monkeypatch.setattr(linalg, "rref", None)
        assert kernel_basis(rows) == reference_kernel(rows, 4)
        assert [len(c) for c in calls] == [12, 12]
        assert all(row[1] % 2 == 1 for row in calls[1])

    @pytest.mark.parametrize("case", ["rank_drop", "wide_entry", "wide_tall",
                                      "past_2_60"])
    def test_multimodular_lift_matches_reference(self, rng, monkeypatch, case):
        # each matrix defeats the elimination mod p = 2^61 - 1 alone, so
        # kernel_basis must eliminate mod further primes and lift by CRT;
        # kernel_basis never calls rref, and rref reads the same lift
        p, q = (1 << 61) - 1, (1 << 61) - 31
        if case == "rank_drop":
            # the minor on columns 0, 1 is p: rank 2 over Q, 1 mod p
            rows = [[1, 1, 0], [1, p + 1, 0]]
        elif case == "wide_entry":
            # the kernel vector (2^40, 1) is wider than the lift bound
            rows = [[1, -(1 << 40)]]
        else:
            # rank 5 of 6: the kernel entries are quotients of 5 x 5 minors,
            # far wider than the lift bound of one prime (entries up to 2^12),
            # or of two primes (entries up to 2^16)
            bits = 12 if case == "wide_tall" else 16
            base = [[rng.randint(-(1 << bits), 1 << bits) for _ in range(6)]
                    for _ in range(5)]
            rows = base + [[sum(c * b[j] for c, b in zip(coefs, base))
                            for j in range(6)]
                           for coefs in ([rng.randint(-2, 2) for _ in base]
                                         for _ in range(55))]
            rng.shuffle(rows)
        lifts = []
        lifted_form = linalg._lifted_form
        def counted(passes, nb):
            lifts.append([prime for prime, *_ in passes])
            return lifted_form(passes, nb)
        monkeypatch.setattr(linalg, "_lifted_form", counted)
        monkeypatch.setattr(linalg, "rref", None)
        want = reference_kernel(rows, len(rows[0]))
        assert kernel_basis(rows) == want
        # rref reads the same reduced form, through the same primes
        n = len(lifts)
        assert rref(rows) == reference_rref(rows)
        assert lifts[n:] == lifts[:n]
        del lifts[n:]
        if case == "rank_drop":
            # 2^61 - 1 gives one pivot where 2^61 - 31 gives two: it is unlucky
            assert lifts == [[p], [q]]
        elif case == "past_2_60":
            widest = max(max(abs(v.numerator), v.denominator)
                         for vec in want for v in vec)
            assert widest > isqrt(p * q // 2) > 1 << 60
            assert len(lifts[-1]) >= 3
        else:
            assert len(lifts[-1]) >= 2

    def test_lift_inverts_reduction(self, rng):
        # over one prime, and over a two-prime product with entries past 2^30
        p, q = (1 << 61) - 1, (1 << 61) - 31
        for m in (p, p * q):
            bound = isqrt(m // 2)
            assert bound * bound * 2 < m < (bound + 1) * (bound + 1) * 2
            for a, b in [(0, 1), (-1, 1), (bound, 1), (-bound, bound), (1, bound)]:
                assert linalg._lift(a * pow(b, -1, m) % m, m) == Fraction(a, b)
            for _ in range(200):
                a, b = rng.randint(-bound, bound), rng.randint(1, bound)
                assert linalg._lift(a * pow(b, -1, m) % m, m) == Fraction(a, b)
        # 2^40 lifts over p q, not over p alone
        assert linalg._lift(1 << 40, p * q) == 1 << 40
        assert linalg._lift(1 << 40, p) != 1 << 40

    def test_prime_sequence(self):
        # the published primes just below 2^61, as 2^61 - k
        ks = [1, 31, 45, 229, 259, 283, 339, 391, 403, 465]
        top = 1 << 61
        assert list(islice(linalg._primes(), 10)) == [top - k for k in ks]
        assert not any(linalg._is_prime(top - k)
                       for k in range(1, 466, 2) if k not in ks)
        # and against trial division on small numbers
        for n in range(2000):
            assert linalg._is_prime(n) == (n > 1 and all(n % d for d in
                                                         range(2, isqrt(n) + 1)))


def _drawn(rows, log):
    """rows as a lazy iterable that appends each row to log as it is read."""
    for row in rows:
        log.append(row)
        yield row


class TestRankModP:
    # the one-prime rank bound against the Gauss-Jordan rank, on seeded
    # integer matrices; a rank mod p never exceeds the rank over Q

    @pytest.mark.parametrize("entries", ["int", "fraction"])
    @pytest.mark.parametrize("shape", [(9, 4), (2, 7), (40, 12), (80, 8)],
                             ids=["tall", "wide", "tall40x12", "tall80x8"])
    def test_rank_matches_gauss_jordan(self, rng, shape, entries):
        n_rows, cols = shape
        for rank in range(min(n_rows, cols) + 1):
            rows = random_matrix(rng, n_rows, cols, rank, entries)
            assert linalg.rank_mod_p(rows, cols, cols) == rank
            # an unreachable target reads every row and gives the rank
            log = []
            assert linalg.rank_mod_p(_drawn(rows, log), cols, cols + 1) == rank
            assert len(log) == len(rows)

    def test_early_stop(self, rng):
        # the rank reaches the target in the first chunk of 16 rows: it is
        # the rank of that chunk, and no later row is formed
        rows = random_matrix(rng, 64, 12, 10, "int")
        for target in (1, 3, len(reference_rref(rows[:16])[1])):
            log = []
            got = linalg.rank_mod_p(_drawn(rows, log), 12, target)
            assert log == rows[:16]
            assert got == len(reference_rref(rows[:16])[1]) >= target

    def test_first_chunk_misses_rank(self, rng):
        # 16 multiples of one row, then the rows of a rank-6 matrix: the
        # first chunk gives rank 1, and the rank reaches 6 in the chunks after
        first = [rng.randint(-4, 4) for _ in range(9)]
        rows = [[c * v for v in first] for c in range(1, 17)]
        rows += random_matrix(rng, 40, 9, 6, "int")
        assert len(reference_rref(rows[:16])[1]) == 1
        want = len(reference_rref(rows)[1])
        log = []
        assert linalg.rank_mod_p(_drawn(rows, log), 9, want) == want
        assert 16 < len(log) < len(rows)
        assert len(reference_rref(log)[1]) == want

    def test_all_zero_matrix(self):
        assert linalg.rank_mod_p([[0] * 5] * 40, 5, 5) == 0
        assert linalg.rank_mod_p([], 5, 5) == 0
        # a target of 0 is met before any row is read
        log = []
        assert linalg.rank_mod_p(_drawn([[1] * 5], log), 5, 0) == 0
        assert log == []


class TestSolveSpace:
    def test_weight2_point_constraint(self):
        con = lambda s: {"c01": s.coeff(b"\x00\x01")}
        assert solve_space(2, [con]).dimension == 0

    def test_weight2_unconstrained(self):
        assert solve_space(2, []).dimension == 1

    def test_weight3_skew(self):
        con = lambda s: letter_swap(s) + s
        space = solve_space(3, [con])
        assert space.dimension == 1
        expected = x_series({"001": 1, "010": -2, "100": 1,
                             "011": -1, "101": 2, "110": -1}, 3)
        eq, _ = series_spans_equal(space.basis, [expected])
        assert eq

    def test_words_chart_matches_lyndon_chart(self):
        # brute-force route: primitivity as an explicit constraint
        def primitivity(s):
            d = shuffle_coproduct(s)
            out = dict(d.terms)
            from ncds.series import _iadd
            for w, c in s.terms.items():
                _iadd(out, (w, b""), -c)
                _iadd(out, (b"", w), -c)
            return out

        skew = lambda s: letter_swap(s) + s
        a = solve_space(3, [skew])
        b = solve_space(3, [primitivity, skew], chart=unit_words(3))
        eq, _ = series_spans_equal(a.basis, b.basis)
        assert eq


class TestLyndonWordRows:
    """A Lie series is zero iff its coefficients at the Lyndon words are, so
    a Lie-valued condition on a Lie chart needs one row per Lyndon word."""

    @pytest.mark.parametrize("w", range(1, 12))
    def test_lyndon_coefficients_are_unitriangular(self, w):
        # the basis element of the Lyndon word l has coefficient 1 at l and
        # 0 at every smaller Lyndon word
        words = lyndon_words(w)
        for j, (word, _tree, elt) in enumerate(lyndon_basis(w).elements):
            assert word == words[j]
            assert elt.coeff(word) == 1
            assert not any(elt.coeff(l) for l in words[:j])

    @pytest.mark.parametrize("w", range(1, 10))
    def test_skew_rows_are_the_callable_rows_at_lyndon_words(self, w):
        assert family_rows(skew_functionals(w)) == callable_rows(
            skew_constraint, Series, w, all_words(w), lyndon_words(w))

    @pytest.mark.parametrize("w", range(2, 10))
    def test_rc_matches_the_callable_skew_solve(self, w):
        from ncds.coaction import _rc_residual_linear, rc_space
        want = solve_space(w, [skew_constraint, _rc_residual_linear], space="rc")
        assert space_bytes(rc_space(w)) == space_bytes(want)

    @pytest.mark.parametrize("w", range(2, 9))
    def test_conj2_matches_the_callable_skew_solve(self, w):
        from ncds.harness import conj2_space, shifted_pair_functionals
        want = solve_space(w, [skew_constraint, shifted_pair_functionals(w)],
                           space="conj2")
        assert space_bytes(conj2_space(w)) == space_bytes(want)

    @pytest.mark.parametrize("w", range(2, 10))
    def test_solved_chart_cut_matches_the_callable_skew_cut(self, w):
        # the whole Lie algebra of the weight, as a solved space, cut by
        # skew symmetry
        lie_space = SolutionSpace("lie", w, canonical_series_basis(
            lyndon_basis(w).series()))
        got = solve_space(w, [skew_functionals(w)], space="skew", chart=lie_space)
        want = solve_space(w, [skew_constraint], space="skew", chart=lie_space)
        assert space_bytes(got) == space_bytes(want)


class TestSpanHelpers:
    def test_contains(self):
        basis = lyndon_basis(3).series()
        v = basis[0].scale(2) - basis[1]
        assert series_span_contains(basis, v)
        assert not series_span_contains([basis[0]], basis[1])

    def test_canonical_basis_deterministic(self):
        basis = lyndon_basis(3).series()
        a = canonical_series_basis([basis[0] + basis[1], basis[0] - basis[1]])
        b = canonical_series_basis([basis[0].scale(3), basis[1].scale(Fraction(1, 2))])
        assert a == b


# -- sparse span reduction against the Gauss-Jordan reference ---------------

def _reference_rank(objs, keys):
    return len(reference_rref([[o.terms.get(k, 0) for k in keys] for o in objs])[1])


def reference_contains(basis, candidate):
    """Rank of the basis, dense over the union of keys, unchanged by the
    candidate."""
    keys = sorted({k for o in list(basis) + [candidate] for k in o.terms})
    return _reference_rank(list(basis) + [candidate], keys) == _reference_rank(basis, keys)


def reference_spans_equal(a, b):
    """(equal, the first of b outside span a, else the first of a outside
    span b)."""
    witness = next((o for o in b if not reference_contains(a, o)), None)
    if witness is None:
        witness = next((o for o in a if not reference_contains(b, o)), None)
    return witness is None, witness


def _seeded_element(rng, kind, n_terms):
    terms = {}
    for _ in range(n_terms):
        w = bytes(rng.randint(0, 1) for _ in range(rng.randint(1, 3)))
        terms[w] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    if kind == "series":
        return Series(X, 3, terms)
    other = {w[::-1]: c for w, c in terms.items() if rng.random() < 0.5}
    return TangentialDerivation.of(Series(X, 3, terms), Series(X, 3, other))


def _seeded_span_case(rng, kind):
    """A non-canonical basis (independent elements, their combinations, a
    repeat and a zero element, shuffled) and candidates in and out of its
    span, the zero element among them."""
    base = [_seeded_element(rng, kind, rng.randint(1, 4))
            for _ in range(rng.randint(0, 4))]
    zero = _seeded_element(rng, kind, 0)
    combos = []
    for _ in range(rng.randint(0, 3)):
        acc = zero
        for e in base:
            acc = acc + e.scale(Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
        combos.append(acc)
    basis = base + combos + base[:1] + [zero] * rng.randint(0, 1)
    rng.shuffle(basis)
    candidates = combos + [zero] + [_seeded_element(rng, kind, rng.randint(1, 4))
                                    for _ in range(3)]
    return basis, candidates


class TestSparseSpanReduction:
    @pytest.mark.parametrize("kind", ["series", "pairs"])
    def test_span_contains_matches_reference(self, kind):
        rng = random.Random(7)
        verdicts = set()
        for _ in range(60):
            basis, candidates = _seeded_span_case(rng, kind)
            for cand in candidates:
                want = reference_contains(basis, cand)
                assert series_span_contains(basis, cand) == want
                verdicts.add(want)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("kind", ["series", "pairs"])
    def test_spans_equal_and_witness_match_reference(self, kind):
        rng = random.Random(8)
        sides = set()
        for i in range(90):
            a, extra = _seeded_span_case(rng, kind)
            # a reordering of a, a part of a, or a part of a and more
            b = a[:rng.randint(0, len(a))] + (extra if i % 3 == 2 else [])
            b = list(a) if i % 3 == 0 else b
            rng.shuffle(b)
            want = reference_spans_equal(a, b)
            got = series_spans_equal(a, b)
            assert got[0] == want[0]
            assert got[1] is want[1]
            sides.add("equal" if want[0] else "b" if any(o is want[1] for o in b) else "a")
        assert sides == {"equal", "a", "b"}

    @pytest.mark.parametrize("kind", ["series", "pairs"])
    def test_canonical_basis_is_used_as_given(self, kind, monkeypatch):
        # a canonical basis is reduced against as it is, with no rref; the
        # same basis scaled and shuffled is not canonical, and goes through
        # canonical_series_basis to the same verdicts
        rng = random.Random(9)
        rrefs = []

        def counting(rows):
            rrefs.append(rows)
            return rref(rows)
        monkeypatch.setattr(linalg, "rref", counting)
        shortcuts = 0
        for _ in range(60):
            basis, candidates = _seeded_span_case(rng, kind)
            canon = canonical_series_basis(basis)
            scrambled = [e.scale(Fraction(rng.choice([-3, -2, -1, 2, 3]),
                                          rng.choice([1, 5, 7]))) for e in canon]
            rng.shuffle(scrambled)
            for cand in candidates:
                want = reference_contains(basis, cand)
                del rrefs[:]
                assert series_span_contains(canon, cand) == want
                assert not rrefs
                assert series_span_contains(scrambled, cand) == want
                assert len(rrefs) == (1 if canon else 0)
                shortcuts += bool(canon)
        assert shortcuts

    @staticmethod
    def rational_case(kind):
        """A canonical basis whose elements have denominators 2, 3 and 6, a
        member m = e1/2 - e2/3 + e3 of its span, and m off by 1/6 at one
        key.  The integer multiples of e1, e2, e3 have pivot entries 2, 3
        and 6, so each is scaled by its own factor of their lcm."""
        def element(terms):
            series = x_series(terms, 3)
            if kind == "series":
                return series
            return TangentialDerivation.of(series, x_series(
                {w[::-1]: c for w, c in terms.items() if w != "001"}, 3))
        half, third, sixth = Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)
        basis = [element({"001": 1, "101": half, "111": -half}),
                 element({"010": 1, "110": third, "111": 2 * third}),
                 element({"011": 1, "101": sixth, "110": -5 * sixth})]
        member = basis[0].scale(half) - basis[1].scale(third) + basis[2]
        off = member + type(member).from_terms(X, 3, {min(member.terms): sixth})
        return basis, member, off

    @pytest.mark.parametrize("kind", ["series", "pairs"])
    @pytest.mark.parametrize("canonical", [True, False], ids=["canonical", "fallback"])
    def test_rational_basis(self, kind, canonical, monkeypatch):
        # a member needs rational coefficients and the candidate is off the
        # span by 1/6 in one coordinate: the integer reduction scales both
        # sides and must neither lose nor invent that sixth
        basis, member, off = self.rational_case(kind)
        assert canonical_series_basis(basis) == basis
        if not canonical:  # mixed and rescaled, so made canonical first
            basis = [basis[0] + basis[1], basis[1].scale(Fraction(-3, 2)),
                     basis[2] - basis[0]]
        calls = []

        def counting(sols):
            calls.append(sols)
            return canonical_series_basis(sols)
        monkeypatch.setattr(lie, "canonical_series_basis", counting)
        assert reference_contains(basis, member)
        assert not reference_contains(basis, off)
        assert series_span_contains(basis, member)
        assert not series_span_contains(basis, off)
        assert len(calls) == (0 if canonical else 2)
        assert series_spans_equal(basis, [member] + basis[:2]) == (True, None)
        for a, b in ((basis, [member, off]), ([member, off], basis),
                     ([member], basis), (basis, [off])):
            got = series_spans_equal(a, b)
            want = reference_spans_equal(a, b)
            assert got[0] == want[0] is False
            assert got[1] is want[1]

    def test_empty_basis(self):
        zero = Series.zero(X, 3)
        assert series_span_contains([], zero)
        assert not series_span_contains([], x_series({"01": 1}, 3))
        assert series_spans_equal([], []) == (True, None)
        assert series_spans_equal([], [zero, zero]) == (True, None)
        b = [zero, x_series({"1": 2}, 3)]
        assert series_spans_equal([], b) == (False, b[1])
        assert series_spans_equal(b, []) == (False, b[1])
