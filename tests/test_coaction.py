from fractions import Fraction

import pytest

from ncds.coaction import (_c4_in_eta, _rc_residual_linear, c4_functionals,
                           c4_residual, change_of_variable, frak_b_check, ihara_bracket,
                           meta_abelian, r_series, rc_residual, rc_space,
                           reduced_coaction)
from ncds.lie import (is_lie_series, is_skew, lyndon_basis, series_spans_equal,
                      skew_constraint)
from ncds.series import Series, letter_swap, one_letter_alphabet

from conftest import (X, all_words, callable_rows, commutator, count_solves,
                      family_rows, random_lie, space_bytes, words_space, x_series)


def psi3():
    b = lyndon_basis(3).series()
    return b[0] - b[1]  # [x0,[x0,x1]] - [x1,[x1,x0]]


def s_series(coeffs, mw):
    S = one_letter_alphabet()
    return Series(S, mw, {bytes(n): c for n, c in coeffs.items()})


class TestReducedCoaction:
    def test_distinct_adjacent(self):
        assert reduced_coaction(x_series({"01": 1}, 3)).is_zero

    def test_single_contraction(self):
        assert reduced_coaction(x_series({"001": 1}, 3)) == x_series({"01": 1}, 3)

    def test_power_word(self):
        for n in range(2, 7):
            f = x_series({"0" * n: 1}, n)
            assert reduced_coaction(f) == x_series({"0" * (n - 1): n - 1}, n)

    def test_commutes_with_letter_swap(self, rng):
        for w in range(2, 9):
            f = random_lie(w, rng) + x_series({"0" * w: 1}, w)
            assert reduced_coaction(letter_swap(f)) == letter_swap(reduced_coaction(f))


class TestRSeries:
    def test_commutator(self):
        com = x_series({"01": 1, "10": -1}, 2)
        assert r_series(com) == s_series({1: 1}, 1)

    def test_weight3_generator(self):
        assert r_series(psi3()) == s_series({2: 1}, 2)

    def test_no_matching_words(self):
        assert r_series(x_series({"10": 1}, 2)).is_zero


class TestRcResidual:
    def test_commutator_solves(self):
        com = x_series({"01": 1, "10": -1}, 2)
        assert rc_residual(com).is_zero

    def test_weight3_generator_solves(self):
        assert rc_residual(psi3()).is_zero

    def test_non_skew_balanced_fails(self):
        half = lyndon_basis(3).series()[0]  # [x0,[x0,x1]] alone
        assert not rc_residual(half).is_zero

    def test_rejects_non_lie(self):
        with pytest.raises(ValueError):
            rc_residual(x_series({"01": 1}, 2))

    def test_rejects_linear_terms(self):
        with pytest.raises(ValueError):
            rc_residual(x_series({"0": 1}, 2))


class TestRcSpace:
    def test_weight2_lambda_free(self):
        space = rc_space(2)
        assert space.dimension == 1
        eq, _ = series_spans_equal(space.basis, [x_series({"01": 1, "10": -1}, 2)])
        assert eq

    def test_weight2_lambda_zero(self):
        assert rc_space(2, 0).dimension == 0

    def test_weight3(self):
        space = rc_space(3, 0)
        assert space.dimension == 1
        eq, _ = series_spans_equal(space.basis, [psi3()])
        assert eq

    def test_weight3_brute_force_words_chart(self):
        # weights 3..8; weight 8 is a 2179 x 256 words chart
        dims = []
        for w in range(3, 9):
            brute = words_space(w, [skew_constraint, _rc_residual_linear, commutator])
            eq, _ = series_spans_equal(brute.basis, rc_space(w, 0).basis)
            assert eq, w
            dims.append(brute.dimension)
        assert dims == [1, 0, 1, 0, 1, 1]

    @pytest.mark.parametrize("w", range(2, 8))
    def test_unit_word_chart_is_the_lyndon_route(self, w):
        # the brute-force route solves on the chart of unit words, with
        # primitivity as a constraint: on rc it gives the Lyndon solve, byte
        # for byte
        brute = words_space(w, [skew_constraint, _rc_residual_linear], space="rc")
        assert space_bytes(brute) == space_bytes(rc_space(w))

    def test_lambda_affine(self):
        space = rc_space(2, Fraction(5, 2))
        assert space.offset == x_series({"01": 1, "10": -1}, 2).scale(Fraction(5, 2))
        assert space.dimension == 0
        with pytest.raises(ValueError):
            rc_space(3, 1)

    def test_rc_is_solved_once_per_weight(self, monkeypatch):
        # every lam cuts the one memoized rc of its weight, and a repeated
        # call returns the very same space
        import ncds.coaction
        counts = count_solves(monkeypatch, ncds.coaction)
        calls = [(5,), (5, 0), (2, Fraction(3, 2)), (2,)]
        first = [rc_space(*args) for args in calls]
        assert all(rc_space(*args) is space for args, space in zip(calls, first))
        assert counts == {("rc", 5): 1, ("rc0", 5): 1, ("rc", 2): 1, ("rc0", 2): 1}

    def test_cli_rc_shares_the_memo(self, monkeypatch):
        # the named-space registry passes lam=None explicitly; that is the
        # memo entry of rc_space(5), not a second solve
        import ncds.coaction
        from ncds.cli import space
        counts = count_solves(monkeypatch, ncds.coaction)
        assert space("rc", 5) is rc_space(5) is rc_space(5, lam=None)
        assert space("rc0", 5) is rc_space(5, 0) is rc_space(5, lam=0)
        assert counts == {("rc", 5): 1, ("rc0", 5): 1}

    def test_equation_variant_same_space(self):
        # replacing r(-x0) by r(x0) leaves rc0 unchanged (even-coefficient
        # vanishing makes both equations agree on the solution space)
        from ncds.lie import solve_space
        from ncds.series import S_AT_X0, S_AT_X1, fox_derivative, substitute

        def variant_residual(eta):
            if eta.is_zero:
                return eta
            r = r_series(eta)
            out = reduced_coaction(eta)
            if not r.is_zero:
                out = out + substitute(r, S_AT_X1) - substitute(r, S_AT_X0)
            return out + fox_derivative(eta, "x0", "left") + fox_derivative(eta, "x1", "right")

        skew = lambda s: letter_swap(s) + s
        lam0 = lambda s: {"lam": s.coeff(b"\x00\x01")}
        for w in (3, 4, 5, 6):
            variant = solve_space(w, [skew, variant_residual, lam0])
            eq, _ = series_spans_equal(variant.basis, rc_space(w, 0).basis)
            assert eq


class TestMetaAbelian:
    def test_commutator(self):
        com = x_series({"01": 1, "10": -1}, 2)
        assert meta_abelian(com) == {(1, 1): 1}

    def test_letter(self):
        assert meta_abelian(x_series({"0": 1}, 1)) == {}

    def test_weight3_generator(self):
        # oracle: abelianize(d^L_1(psi) * x1) computed by hand
        assert meta_abelian(psi3()) == {(2, 1): 1, (1, 2): 1}


class TestFrakB:
    def test_zero(self):
        ok, gamma = frak_b_check({})
        assert ok and gamma.is_zero

    def test_quadratic(self):
        ok, gamma = frak_b_check({(1, 1): 2})
        assert ok
        assert gamma == s_series({2: -1}, 2)

    def test_pure_power_rejected(self):
        ok, gamma = frak_b_check({(2, 0): 1})
        assert not ok and gamma is None

    def test_cubic_from_psi3(self):
        ok, gamma = frak_b_check(meta_abelian(psi3()))
        assert ok
        assert gamma == s_series({3: Fraction(-1, 3)}, 3)


class TestIharaBracket:
    def test_self_bracket(self):
        com = x_series({"01": 1, "10": -1}, 4)
        assert ihara_bracket(com, com).is_zero

    def test_degenerate_pair(self):
        com = x_series({"01": 1, "10": -1}, 4)
        assert ihara_bracket(com.scale(2), com).is_zero

    def test_weight5_wordwise_leibniz_oracle(self):
        # oracle: independent Leibniz expansion of d_psi over word positions
        from ncds.lie import lie_bracket

        def oracle_derivation(psi, f):
            x1 = Series.letter(X, "x1", f.max_weight)
            img = x1 * psi - psi * x1
            out = Series.zero(X, f.max_weight)
            for w, c in f.terms.items():
                for i, li in enumerate(w):
                    if li == 1:
                        out = out + Series(X, f.max_weight, {w[:i]: c}) * img \
                            * Series(X, f.max_weight, {w[i + 1:]: 1})
            return out

        psi2 = x_series({"01": 1, "10": -1}, 5)
        p3 = Series(X, 5, psi3().terms)
        expected = oracle_derivation(p3, psi2) - oracle_derivation(psi2, p3) \
            - lie_bracket(psi2, p3)
        got = ihara_bracket(psi2, p3)
        assert got == expected
        assert not got.is_zero
        assert is_lie_series(got)

    def test_rejects_non_lie(self):
        with pytest.raises(ValueError):
            ihara_bracket(x_series({"01": 1}, 3), x_series({"0": 1}, 3))

    def test_jacobi(self, rng):
        def lift(s):
            return Series(X, 9, s.terms)

        for _ in range(3):
            a = lift(random_lie(2, rng))
            b = lift(random_lie(3, rng))
            c = lift(random_lie(2, rng))
            total = ihara_bracket(a, ihara_bracket(b, c)) \
                + ihara_bracket(b, ihara_bracket(c, a)) \
                + ihara_bracket(c, ihara_bracket(a, b))
            assert total.is_zero


class TestTheoremDClosureSmall:
    def test_bracket_of_generators_stays_in_rc0(self):
        p3 = Series(X, 8, psi3().terms)
        b5 = rc_space(5, 0).basis
        assert len(b5) == 1
        p5 = Series(X, 8, b5[0].terms)
        br = ihara_bracket(p3, p5)
        assert is_skew(br)
        assert rc_residual(br).is_zero


class TestChangeOfVariableForm:
    def test_psi3_satisfies_c4(self):
        assert c4_residual(psi3()).is_zero

    def test_change_of_variable_is_lie(self):
        eta = change_of_variable(psi3())
        assert is_lie_series(eta)

    def test_non_member_fails_c4(self):
        half = lyndon_basis(3).series()[0]
        assert not c4_residual(half).is_zero

    @pytest.mark.parametrize("w", range(2, 10))
    def test_c4_rows_are_the_callable_rows(self, w):
        # the transpose of _c4_in_eta: one row per word of length w - 1,
        # each equal to the callable's row read off the unit words
        rows = family_rows(c4_functionals(w))
        assert sorted(rows) == all_words(w - 1)
        assert rows == callable_rows(_c4_in_eta, Series, w, all_words(w), rows)
