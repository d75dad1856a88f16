import pytest

from ncds.barwords import (IDENTITY, OMEGA_SWAP, _bar_xy, bar_double,
                           bar_single, integrable, pair, restrict_to_letters)
from ncds.braid import chord_alphabet, insert_triple, permute_strands, TAU
from ncds.lie import lyndon_basis
from ncds.series import Series

from conftest import random_lie, x_series

G = chord_alphabet()


def g_series(terms, mw):
    return Series(G, mw, {bytes(G.index(n) for n in word): c
                          for word, c in terms.items()})


def psi3():
    b = lyndon_basis(3).series()
    return b[0] - b[1]


def compositions(total):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first,) + rest


def index_pairs(weight):
    for wa in range(1, weight):
        for a in compositions(wa):
            for b in compositions(weight - wa):
                yield a, b


class TestBarSingle:
    def test_z_weight2(self):
        # l_(2) = -[w0|w1]
        got = bar_single((2,), "z")
        assert got == x_series({"01": -1}, 2)

    def test_x_depth1(self):
        assert bar_single((1,), "x") == g_series({("23",): -1}, 1)

    def test_xy_depth1(self):
        assert bar_single((1,), "xy") == g_series({("24",): -1}, 1)

    def test_z_general_pattern(self):
        # l_(1,2) = (+1)[w0|w1|w1]
        assert bar_single((1, 2), "z") == x_series({"011": 1}, 3)

    def test_y_powers(self):
        # l^y_(3) = -[w45|w45|w34]
        assert bar_single((3,), "y") == g_series({("45", "45", "34"): -1}, 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bar_single((), "z")


class TestBarDouble:
    def test_double_dilogarithm(self):
        # [w23|w34] - [w23 - w34 - w12 | w24]
        got = bar_double((1,), (1,), ("x", "y"))
        expected = g_series({("23", "34"): 1, ("23", "24"): -1,
                             ("34", "24"): 1, ("12", "24"): 1}, 2)
        assert got == expected

    def test_role_swap(self):
        got = bar_double((1,), (1,), ("y", "x"))
        expected = g_series({("34", "23"): 1, ("34", "24"): -1,
                             ("23", "24"): 1, ("45", "24"): 1}, 2)
        assert got == expected

    def test_kerpr2_restriction_closed_form(self):
        # restriction of l^{y,x}_{a,b} to letters {w12, w23, w24}:
        # (-1)^(k+l) [w12^(b_l-1)|w23|...|w12^(b_1-1)|w23|w12^(a_k-1)|w24|...]
        for a, b in (((1,), (1,)), ((2,), (1, 1)), ((1, 2), (2,)), ((1, 1, 1), (2,))):
            got = restrict_to_letters(bar_double(a, b, ("y", "x")), ("12", "23", "24"))
            word = []
            for b_i in reversed(b):
                word += ["12"] * (b_i - 1) + ["23"]
            for a_i in reversed(a):
                word += ["12"] * (a_i - 1) + ["24"]
            sign = (-1) ** (len(a) + len(b))
            assert got == g_series({tuple(word): sign}, sum(a) + sum(b)), (a, b)

    def test_kerpr4_restriction_closed_form(self):
        for a, b in (((1, 1), (2,)), ((3,), (1,))):
            got = restrict_to_letters(bar_double(a, b, ("x", "y")), ("45", "34", "24"))
            word = []
            for b_i in reversed(b):
                word += ["45"] * (b_i - 1) + ["34"]
            for a_i in reversed(a):
                word += ["45"] * (a_i - 1) + ["24"]
            sign = (-1) ** (len(a) + len(b))
            assert got == g_series({tuple(word): sign}, sum(a) + sum(b)), (a, b)


class TestLetterTargets:
    def test_identity_and_swap_targets(self):
        # the identity target gives the x,y word; the swap target gives that
        # word with w12 <-> w45 and w23 <-> w34 swapped letter by letter
        swap = {"12": "45", "45": "12", "23": "34", "34": "23", "24": "24"}
        table = bytes(G.index(swap[n]) for n in G.letters)
        for w in range(2, 7):
            for a, b in index_pairs(w):
                xy = bar_double(a, b, ("x", "y"))
                assert Series(G, w, _bar_xy(a, b, IDENTITY)) == xy
                swapped = Series(G, w, {bytes(table[i] for i in word): c
                                        for word, c in xy.terms.items()})
                assert Series(G, w, _bar_xy(a, b, OMEGA_SWAP)) == swapped
                assert bar_double(a, b, ("y", "x")) == swapped

    def test_single_words_through_a_target(self):
        # a target sends letters the way coface_pullback does: 12 -> x0,
        # 23 -> x1, and words through any other letter vanish
        target = tuple({"12": 0, "23": 1}.get(n) for n in G.letters)
        assert bar_single((2, 1), "x", target) == x_series({"101": 1}, 3)
        assert bar_single((2, 1), "xy", target).is_zero
        assert bar_single((2,), "y", target).is_zero
        with pytest.raises(ValueError):
            bar_single((2,), "z", target)

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            bar_double((1,), (1,), ("x", "x"))


class TestPair:
    def test_la_coefficient_formula(self, rng):
        # l_a(phi) = (-1)^k c_{x0^(a_k-1) x1 ... x0^(a_1-1) x1}(phi)
        for w in range(2, 7):
            phi = random_lie(w, rng) + x_series({"0" * w: 2, "1" * w: -1}, w)
            for a in compositions(w):
                word = []
                for a_i in reversed(a):
                    word += [0] * (a_i - 1) + [1]
                expected = ((-1) ** len(a)) * phi.coeff(bytes(word))
                assert pair(bar_single(a, "z"), phi) == expected

    def test_commutator_value(self):
        com = x_series({"01": 1, "10": -1}, 2)
        assert pair(bar_single((2,), "z"), com) == -1

    def test_lemma_432_depth1(self, rng):
        # l^{y,x}_{(1..1)_k,(1)}(psi_432) = (-1)^(k+1) c_{x0^k x1}(psi)
        for w in (3, 4, 5, 6):
            psi = random_lie(w, rng)
            psi432 = insert_triple(psi, 4, 3, 2)
            k = w - 1
            bar = bar_double((1,) * k, (1,), ("y", "x"))
            assert pair(bar, psi432) == ((-1) ** (k + 1)) * psi.coeff(b"\x00" * k + b"\x01")

    def test_grading_mismatch_is_zero(self):
        bar = bar_double((1,), (1,), ("y", "x"))
        elt = insert_triple(psi3(), 1, 2, 3)
        assert pair(bar, elt) == 0


class TestPolylogCompilationLemma:
    def test_all_five_identities(self, rng):
        for w in (2, 3, 4, 5):
            psi = random_lie(w, rng)
            psi543 = insert_triple(psi, 5, 4, 3)
            psi215 = insert_triple(psi, 2, 1, 5)
            psi432 = insert_triple(psi, 4, 3, 2)
            phi = insert_triple(psi, 4, 5, 1) + insert_triple(psi, 1, 2, 3)
            for a, b in index_pairs(w):
                byx = bar_double(a, b, ("y", "x"))
                assert pair(byx, psi543) == 0
                concat = bar_single(a + b, "z")
                assert pair(byx, psi215) == pair(concat, psi)
                if set(a) != {1} or set(b) != {1}:
                    assert pair(byx, psi432) == 0
                bxy = bar_double(a, b, ("x", "y"))
                assert pair(bxy, phi) == pair(concat, psi)
            for a in compositions(w):
                assert pair(bar_single(a, "xy"), phi) == pair(bar_single(a, "z"), psi)


class TestStuffleTwoVariable:
    def test_vanishes_on_primitive_braid_elements(self, rng):
        from ncds.dshuffle import sh_le, sigma_compose
        for w in (3, 4, 5):
            psi = random_lie(w, rng)
            phi = insert_triple(psi, 4, 5, 1) + insert_triple(psi, 1, 2, 3)
            for a, b in index_pairs(w):
                total = 0
                for s in sh_le(len(a), len(b)):
                    (first, second), tag = sigma_compose(s, a, b)
                    if tag == "xy":
                        total += pair(bar_single(first, "xy"), phi)
                    elif tag == "x,y":
                        total += pair(bar_double(first, second, ("x", "y")), phi)
                    else:
                        total += pair(bar_double(first, second, ("y", "x")), phi)
                assert total == 0, (w, a, b)


class TestDihedralTransport:
    def test_yx_equals_xy_after_tau(self, rng):
        # l^{y,x}_{a,b}(phi) = l^{x,y}_{a,b}(phi^tau) for arbitrary elements
        for w in (2, 3, 4):
            psi = random_lie(w, rng)
            for phi in (insert_triple(psi, 1, 2, 3),
                        insert_triple(psi, 4, 5, 1),
                        insert_triple(psi, 2, 4, 1) if w < 4 else insert_triple(psi, 3, 1, 4)):
                phi_tau = permute_strands(phi, TAU)
                for a, b in index_pairs(w):
                    assert pair(bar_double(a, b, ("y", "x")), phi) == \
                        pair(bar_double(a, b, ("x", "y")), phi_tau), (w, a, b)


class TestIntegrable:
    def test_weight_one(self):
        for name in ("12", "23", "34", "45", "24"):
            assert integrable(g_series({(name,): 1}, 1))

    def test_double_dilog_integrable(self):
        assert integrable(bar_double((1,), (1,), ("x", "y")))

    def test_bare_tensor_not_integrable(self):
        # [w12|w34] pairs to 1 against the disjoint-chord relation [x12,x34]
        assert not integrable(g_series({("12", "34"): 1}, 2))

    def test_x_line_pair_is_integrable(self):
        # [w12|w23] = -l^x_(2): both forms pull back from the x-line, so the
        # relation-annihilation oracle finds no violated slot
        assert integrable(g_series({("12", "23"): 1}, 2))

    def test_all_generated_words_small(self):
        for w in range(1, 5):
            for a in compositions(w):
                for var in ("x", "y", "xy"):
                    assert integrable(bar_single(a, var)), (a, var)
            for a, b in index_pairs(w):
                assert integrable(bar_double(a, b, ("x", "y"))), (a, b)
                assert integrable(bar_double(a, b, ("y", "x"))), (a, b)

    def test_z_words_trivially_integrable(self):
        assert integrable(bar_single((2, 1), "z"))
