import itertools
from fractions import Fraction

import pytest

from ncds.dshuffle import (_dmr_residual_linear, dmr_residual, dmr_space, pi_y,
                           psi_corr, psi_star, sh_le, sigma_compose,
                           stuffle_coproduct, stuffle_product_words,
                           y_alphabet, y_functional, y_word)
from ncds.harness import _compositions as compositions
from ncds.lie import lyndon_basis, series_spans_equal
from ncds.series import Series

from conftest import X, count_solves, words_space, x_series


def psi3():
    b = lyndon_basis(3).series()
    return b[0] - b[1]


def y_series(terms, mw):
    ys = y_alphabet(mw)
    return Series(ys, mw, {bytes(n - 1 for n in word): c for word, c in terms.items()})


class TestPiY:
    def test_kills_trailing_x0(self):
        assert pi_y(x_series({"0": 1}, 3)).is_zero
        assert pi_y(x_series({"0110": 5}, 4)).is_zero

    def test_depth_one(self):
        assert pi_y(x_series({"01": 1}, 2)) == y_series({(2,): -1}, 2)

    def test_depth_two(self):
        assert pi_y(x_series({"11": 1}, 2)) == y_series({(1, 1): 1}, 2)

    def test_block_order(self):
        # x0 x1 x1 = x0^1 x1 . x1 -> (+1)^2? blocks (y2, y1), sign (-1)^2
        assert pi_y(x_series({"011": 1}, 3)) == y_series({(2, 1): 1}, 3)


class TestPsiStar:
    def test_commutator(self):
        star = psi_star(x_series({"01": 1, "10": -1}, 2))
        assert star == y_series({(2,): -1, (1, 1): Fraction(1, 2)}, 2)

    def test_zero(self):
        assert psi_star(Series.zero(X, 3)).is_zero

    def test_weight3_generator(self):
        star = psi_star(psi3())
        assert star == y_series({(3,): -1, (1, 2): 2, (2, 1): -1,
                                 (1, 1, 1): Fraction(-1, 3)}, 3)

    def test_corr_lives_on_y1_powers(self):
        corr = psi_corr(psi3())
        assert all(set(w) == {0} for w in corr.terms)


class TestStuffleCoproduct:
    def test_y1(self):
        d = stuffle_coproduct(y_series({(1,): 1}, 3))
        assert d.terms == {(b"\x00", b""): 1, (b"", b"\x00"): 1}

    def test_y2(self):
        d = stuffle_coproduct(y_series({(2,): 1}, 3))
        assert d.terms == {(b"\x01", b""): 1, (b"", b"\x01"): 1,
                           (b"\x00", b"\x00"): 1}

    def test_y1y1(self):
        d = stuffle_coproduct(y_series({(1, 1): 1}, 3))
        assert d.terms == {(b"\x00\x00", b""): 1, (b"", b"\x00\x00"): 1,
                           (b"\x00", b"\x00"): 2}


class TestDmrResidual:
    def test_commutator(self):
        assert dmr_residual(x_series({"01": 1, "10": -1}, 2)).is_zero

    def test_weight3_generator(self):
        assert dmr_residual(psi3()).is_zero

    def test_non_member(self):
        half = lyndon_basis(3).series()[0]
        assert not dmr_residual(half).is_zero

    def test_rejects_non_lie(self):
        with pytest.raises(ValueError):
            dmr_residual(x_series({"01": 1}, 2))


class TestShLe:
    def test_counts(self):
        assert len(sh_le(1, 1)) == 3
        assert len(sh_le(2, 1)) == 5
        assert len(sh_le(1, 2)) == 5

    def test_onto_and_monotone(self):
        for k, l in ((1, 1), (2, 2), (3, 1)):
            for s in sh_le(k, l):
                assert set(s.values) == set(range(1, s.n + 1))
                assert list(s.values[:k]) == sorted(s.values[:k])
                assert list(s.values[k:]) == sorted(s.values[k:])
                assert len(set(s.values[:k])) == k
                assert len(set(s.values[k:])) == l

    def test_count_matches_stuffle_expansion(self):
        # |Sh^{<=(k,l)}| equals the number of terms (with multiplicity) of the
        # quasi-shuffle product of generic depth-k and depth-l words
        for k, l in itertools.product(range(1, 5), range(1, 5)):
            u = bytes((5,)) * k   # generic distinct-ish letters are unneeded:
            v = bytes((7,)) * l   # multiplicities are what we compare
            total = sum(stuffle_product_words(u, v).values())
            assert total == len(sh_le(k, l))


class TestSigmaCompose:
    def test_merge(self):
        merge = [s for s in sh_le(1, 1) if s.n == 1][0]
        (first, second), tag = sigma_compose(merge, (2,), (3,))
        assert tag == "xy" and first == (5,) and second == ()

    def test_order_xy(self):
        s = [s for s in sh_le(1, 1) if s.values == (1, 2)][0]
        (first, second), tag = sigma_compose(s, (2,), (3,))
        assert tag == "x,y" and first == (2,) and second == (3,)

    def test_order_yx(self):
        s = [s for s in sh_le(1, 1) if s.values == (2, 1)][0]
        (first, second), tag = sigma_compose(s, (2,), (3,))
        assert tag == "y,x" and first == (3,) and second == (2,)

    def test_composition_against_word_stuffle(self):
        # concatenated composed indices reproduce the y-word quasi-shuffle
        for a, b in (((1, 2), (2,)), ((1, 1), (2, 1))):
            ya = y_word(a)
            yb = y_word(b)
            direct = stuffle_product_words(ya, yb)
            via_sigma = {}
            from ncds.series import _iadd
            for s in sh_le(len(a), len(b)):
                (first, second), _ = sigma_compose(s, a, b)
                _iadd(via_sigma, y_word(first + second), 1)
            assert via_sigma == direct


class TestDmrSpace:
    def test_weight2(self):
        space = dmr_space(2)
        assert space.dimension == 1
        eq, _ = series_spans_equal(space.basis, [x_series({"01": 1, "10": -1}, 2)])
        assert eq

    def test_weight3(self):
        space = dmr_space(3)
        assert space.dimension == 1
        assert space.basis[0].coeff(b"\x00\x00\x01") != 0
        eq, _ = series_spans_equal(space.basis, [psi3()])
        assert eq

    def test_weight4(self):
        assert dmr_space(4).dimension == 0

    def test_solved_once_per_weight(self, monkeypatch):
        import ncds.dshuffle
        counts = count_solves(monkeypatch, ncds.dshuffle)
        assert dmr_space(5) is dmr_space(5)
        assert counts == {("dmr0", 5): 1}

    def test_words_chart_agrees(self):
        for w in range(3, 9):
            eq, _ = series_spans_equal(dmr_space(w).basis,
                                       words_space(w, [_dmr_residual_linear]).basis)
            assert eq


class TestDualFormulationAgreement:
    def test_nonmember_violates_some_functional(self):
        # the coproduct residual and the Sh-sum functionals cut the same
        # space: a series with nonzero residual fails some functional
        half = lyndon_basis(3).series()[0]  # [x0,[x0,x1]], not in dmr0
        star = psi_star(half)
        violated = []
        for wa in range(1, 3):
            for a in compositions(wa):
                for b in compositions(3 - wa):
                    total = 0
                    for s in sh_le(len(a), len(b)):
                        (first, second), _ = sigma_compose(s, a, b)
                        total += y_functional(first + second, star)
                    if total:
                        violated.append((a, b))
        assert violated

    def test_sh_functionals_vanish_on_dmr(self):
        # functional form of the primitivity condition: for every index pair,
        # sum over Sh^{<=} of the concatenated-index functionals on psi_* is 0
        for w in range(2, 9):
            basis = dmr_space(w).basis
            if not basis:
                continue
            for psi in basis:
                star = psi_star(psi)
                for wa in range(1, w):
                    for a in compositions(wa):
                        for b in compositions(w - wa):
                            total = 0
                            for s in sh_le(len(a), len(b)):
                                (first, second), _ = sigma_compose(s, a, b)
                                total += y_functional(first + second, star)
                            assert total == 0
