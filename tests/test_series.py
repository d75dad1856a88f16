import itertools
import json
from fractions import Fraction

import pytest

from ncds.series import (Alphabet, LinearMorphism, Series, TensorSeries, abelianize,
                         antipode, conc_mul, cyclic_project, fox_derivative,
                         letter_swap, series_from_json, series_to_json,
                         shuffle_coproduct, shuffle_mul, substitute,
                         symmetrize, _expand_terms, _translate_terms)

from conftest import X, ref_expand_terms, x_series


def letters(mw=6):
    return (Series.letter(X, "x0", mw), Series.letter(X, "x1", mw))


def random_series(rng, max_weight, n_terms=6):
    terms = {}
    for _ in range(n_terms):
        n = rng.randint(0, max_weight)
        w = bytes(rng.randint(0, 1) for _ in range(n))
        terms[w] = rng.randint(-4, 4)
    return Series(X, max_weight, terms)


class TestConcMul:
    def test_unit(self):
        x0, x1 = letters()
        f = x0 * x1 + 3 * x1
        assert Series.unit(X, 6) * f == f

    def test_single_words(self):
        x0, x1 = letters()
        assert x0 * x1 == x_series({"01": 1}, 6)

    def test_definitional_expansion(self):
        # (x0+x1)(x0-x1), expanded by hand from bilinearity
        x0, x1 = letters()
        prod = (x0 + x1) * (x0 - x1)
        assert prod == x_series({"00": 1, "01": -1, "10": 1, "11": -1}, 6)

    def test_truncation_to_min_weight(self):
        f = Series.word(X, ("x0",) * 3, 4)
        g = Series.word(X, ("x0",) * 3, 8)
        assert (f * g).is_zero
        assert (f * g).max_weight == 4


class TestShuffleMul:
    def test_two_letters(self):
        x0, x1 = letters()
        assert shuffle_mul(x0, x1) == x_series({"01": 1, "10": 1}, 6)

    def test_unit(self):
        f = x_series({"011": 2, "0": -1}, 6)
        assert shuffle_mul(Series.unit(X, 6), f) == f

    def test_square_of_letter(self):
        x0, _ = letters()
        assert shuffle_mul(x0, x0) == x_series({"00": 2}, 6)

    def test_commutative_associative_random(self, rng):
        for _ in range(5):
            f = random_series(rng, 8)
            g = random_series(rng, 8)
            h = random_series(rng, 8)
            assert shuffle_mul(f, g) == shuffle_mul(g, f)
            assert shuffle_mul(shuffle_mul(f, g), h) == shuffle_mul(f, shuffle_mul(g, h))


class TestShuffleCoproduct:
    def test_letter_primitive(self):
        x0, _ = letters()
        d = shuffle_coproduct(x0)
        assert d.terms == {(b"\x00", b""): 1, (b"", b"\x00"): 1}

    def test_unit(self):
        d = shuffle_coproduct(Series.unit(X, 4))
        assert d.terms == {(b"", b""): 1}

    def test_two_letter_word(self):
        d = shuffle_coproduct(x_series({"01": 1}, 4))
        assert d.terms == {(b"\x00\x01", b""): 1, (b"", b"\x00\x01"): 1,
                           (b"\x00", b"\x01"): 1, (b"\x01", b"\x00"): 1}

    def test_bialgebra_axiom_with_conc(self, rng):
        # Delta(f g) = Delta(f) Delta(g), componentwise concatenation: the
        # compatibility that makes (conc, Delta) a bialgebra.
        from ncds.series import _iadd
        for _ in range(3):
            f = random_series(rng, 5, 4)
            g = random_series(rng, 5, 4)
            lhs = shuffle_coproduct(f * g)
            rhs = {}
            df, dg = shuffle_coproduct(f), shuffle_coproduct(g)
            for (a1, b1), c1 in df.terms.items():
                for (a2, b2), c2 in dg.terms.items():
                    _iadd(rhs, (a1 + a2, b1 + b2), c1 * c2)
            mw = lhs.max_weight
            rhs = {k: c for k, c in rhs.items() if len(k[0]) + len(k[1]) <= mw}
            assert lhs.terms == rhs

    def test_not_a_morphism_for_shuffle(self):
        # counterexample fixing the compatibility direction: on f = g = x0 the
        # componentwise-shuffle square of Delta(x0) differs from Delta(x0 sha x0)
        x0, _ = letters()
        lhs = shuffle_coproduct(shuffle_mul(x0, x0))
        assert lhs.coeff(b"\x00", b"\x00") == 4
        # componentwise shuffle of (x0 (x) 1 + 1 (x) x0) with itself gives 2


class TestAntipode:
    def test_paper_word(self):
        # S(x1 x0^(n-2)) = (-1)^(n-1) x0^(n-2) x1
        for n in range(2, 7):
            w = x_series({"1" + "0" * (n - 2): 1}, 8)
            expected = x_series({"0" * (n - 2) + "1": (-1) ** (n - 1)}, 8)
            assert antipode(w) == expected

    def test_unit(self):
        one = Series.unit(X, 3)
        assert antipode(one) == one

    def test_reverse_sign(self):
        assert antipode(x_series({"01": 1}, 4)) == x_series({"10": 1}, 4)

    def test_anti_automorphism(self, rng):
        for _ in range(4):
            f = random_series(rng, 6, 4)
            g = random_series(rng, 6, 4)
            assert antipode(f * g) == antipode(g) * antipode(f)

    def test_hopf_antipode_axiom(self, rng):
        # conc o (S (x) id) o Delta = eta o eps
        for _ in range(4):
            f = random_series(rng, 6, 5)
            acc = Series.zero(X, f.max_weight)
            for (u, v), c in shuffle_coproduct(f).terms.items():
                left = antipode(Series(X, f.max_weight, {u: c}))
                acc = acc + left * Series(X, f.max_weight, {v: 1})
            assert acc == Series(X, f.max_weight, {b"": f.constant_term()})


class TestLetterSwap:
    def test_letter(self):
        x0, x1 = letters()
        assert letter_swap(x0) == x1

    def test_word(self):
        assert letter_swap(x_series({"011": 1}, 4)) == x_series({"100": 1}, 4)

    def test_commutator(self):
        com = x_series({"01": 1, "10": -1}, 4)
        assert letter_swap(com) == -com


class TestFoxDerivative:
    def test_right_strip(self):
        assert fox_derivative(x_series({"10": 1}, 4), "x1", "right") == \
            x_series({"0": 1}, 4)

    def test_right_mismatch(self):
        assert fox_derivative(x_series({"10": 1}, 4), "x0", "right").is_zero

    def test_left_strip(self):
        assert fox_derivative(x_series({"10": 1}, 4), "x0", "left") == \
            x_series({"1": 1}, 4)

    def test_decomposition_identity(self, rng):
        # f = eps(f) 1 + x0 dR0(f) + x1 dR1(f)
        x0, x1 = letters(7)
        for _ in range(5):
            f = random_series(rng, 7)
            rebuilt = Series(X, 7, {b"": f.constant_term()}) \
                + x0 * fox_derivative(f, "x0", "right") \
                + x1 * fox_derivative(f, "x1", "right")
            assert rebuilt == f


def on_x(images):
    return LinearMorphism.by_name(X, X, images)


class TestSubstitute:
    def test_swap_images(self):
        x0, x1 = letters()
        com = x0 * x1 - x1 * x0
        assert substitute(com, on_x({"x0": {"x1": 1}, "x1": {"x0": 1}})) == -com

    def test_identity(self, rng):
        f = random_series(rng, 6)
        assert substitute(f, on_x({"x0": {"x0": 1}, "x1": {"x1": 1}})) == f

    def test_linear_change(self):
        x0, x1 = letters()
        com = x0 * x1 - x1 * x0
        m = on_x({"x0": {"x0": -1, "x1": -1}, "x1": {"x1": 1}})
        assert substitute(com, m) == -com

    def test_matches_product_of_images(self, rng):
        # independent route: sum over words w of c_w times the concatenation
        # product of the images of w's letters, truncated by conc_mul
        for _ in range(30):
            f = random_series(rng, 6)
            x0, x1 = letters(6)
            coefs = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(2)]
            images = [a * x0 + b * x1 for a, b in coefs]
            expected = Series.zero(X, 6)
            for w, c in f.terms.items():
                prod = Series.unit(X, 6)
                for i in w:
                    prod = conc_mul(prod, images[i])
                expected = expected + prod.scale(c)
            got = substitute(f, LinearMorphism(X, X, [((0, a), (1, b)) for a, b in coefs]))
            assert got == expected and got.max_weight == 6

    def test_word_morphism_paths_agree(self, rng):
        # a word morphism takes the translate path; the general expansion
        # over the same images must give the same series
        from ncds.barwords import bar_double
        from ncds.braid import ALPHA_LEGS
        from ncds.harness import leg_morphism
        swap = LinearMorphism(X, X, (((1, 1),), ((0, 1),)))
        cases = [(swap, random_series(rng, 6)) for _ in range(5)]
        bar = bar_double((1, 2), (2,), ("y", "x"))
        cases += [(leg_morphism(leg), bar) for _sign, leg in ALPHA_LEGS]
        for m, f in cases:
            assert m._translation is not None
            general = Series(m.target, f.max_weight, _expand_terms(f.terms, m.images))
            assert m.apply(f) == general
            assert _translate_terms(f.terms, *m._translation) == general.terms
        assert letter_swap(cases[0][1]) == swap.apply(cases[0][1])


class TestLetterMapRecursion:
    """The first-letter recursion of _expand_terms against the per-word
    reference expansion (conftest.ref_expand_terms)."""

    @staticmethod
    def fraction_series(rng, alphabet, max_weight, n_terms):
        terms = {}
        for _ in range(n_terms):
            n = rng.randint(0, max_weight)
            w = bytes(rng.randrange(len(alphabet)) for _ in range(n))
            terms[w] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        return Series(alphabet, max_weight, terms)

    @staticmethod
    def assert_matches_reference(m, f):
        want = ref_expand_terms(f.terms, m.images)
        assert _expand_terms(f.terms, m.images) == want
        got = m.apply(f)
        assert got.terms == want and got.max_weight == f.max_weight
        assert got.alphabet == m.target

    def test_named_maps(self, rng):
        from ncds import series
        maps = [getattr(series, name) for name in
                ("AT_MINUS_SUM_X1", "AT_SUM_ZERO", "AT_X1_ZERO", "S_AT_X1",
                 "S_AT_MINUS_X0", "S_AT_X0", "S_AT_SUM")]
        for m in maps:
            for w in range(0, 7):
                for word in itertools.product(range(len(m.source)), repeat=w):
                    self.assert_matches_reference(
                        m, Series(m.source, w, {bytes(word): 1}))
            for mw in (0, 1, 4, 7):
                for n_terms in (1, 2, 30):
                    self.assert_matches_reference(
                        m, self.fraction_series(rng, m.source, mw, n_terms))

    def test_zero_letters_empty_word_and_mixed_weights(self, rng):
        three = Alphabet(("a", "b", "c"))
        maps = [
            LinearMorphism(three, X, (((0, 2), (1, -1)), (), ((1, 3),))),
            LinearMorphism(three, X, (((0, 1), (1, 0)), ((1, 1),), ((0, 1),))),
            LinearMorphism(three, three, ((), (), ())),
            LinearMorphism(three, three, (((0, 1), (1, 1), (2, 1)),) * 3),
        ]
        assert maps[1].images[0] == ((b"\x00", 1),)
        for m in maps:
            for mw in (0, 3, 6):
                for n_terms in (1, 5, 40):
                    self.assert_matches_reference(
                        m, self.fraction_series(rng, three, mw, n_terms))
            self.assert_matches_reference(m, Series.unit(three, 4))
            self.assert_matches_reference(m, Series.zero(three, 4))
        assert maps[2].apply(Series(three, 3, {b"": 5, b"\x00\x01": 1})).terms \
            == {b"": 5}


class TestAbelianize:
    def test_collect(self):
        f = x_series({"01": 1, "10": 1}, 4)
        assert abelianize(f) == {(1, 1): 2}

    def test_commutator_dies(self):
        assert abelianize(x_series({"01": 1, "10": -1}, 4)) == {}

    def test_power(self):
        assert abelianize(x_series({"00": 1}, 4)) == {(2, 0): 1}


class TestCyclicAndSymmetrize:
    def test_two_rotations(self):
        c = cyclic_project(x_series({"01": 1}, 4))
        assert symmetrize(c) == x_series({"01": 1, "10": 1}, 4)

    def test_single_letter(self):
        c = cyclic_project(x_series({"0": 1}, 4))
        assert symmetrize(c) == x_series({"0": 1}, 4)

    def test_coinciding_rotations(self):
        c = cyclic_project(x_series({"00": 1}, 4))
        assert symmetrize(c) == x_series({"00": 2}, 4)

    def test_canonical_representative(self):
        a = cyclic_project(x_series({"10": 1}, 4))
        b = cyclic_project(x_series({"01": 1}, 4))
        assert a == b
        assert list(a.terms) == [b"\x00\x01"]

    def test_project_symmetrize_scales_by_weight(self, rng):
        for w in range(1, 6):
            f = random_series(rng, w, 4).homogeneous_part(w)
            c = cyclic_project(f)
            assert cyclic_project(symmetrize(c)) == c.scale(w)


class TestTruncatingAddition:
    def test_tensor_sum_truncates_to_smaller_max_weight(self):
        low = TensorSeries(X, 2, {(b"\x00", b"\x01"): 1})
        high = TensorSeries(X, 4, {(b"\x00", b"\x01"): 2, (b"\x00", b"\x01\x01"): 1})
        for s in (low + high, high + low, low - high, high - low):
            assert s.max_weight == 2 and list(s.terms) == [(b"\x00", b"\x01")]
        assert (low + high).terms == {(b"\x00", b"\x01"): 3}

    def test_cyclic_sum_truncates_to_smaller_max_weight(self):
        low = cyclic_project(x_series({"01": 1}, 2))
        high = cyclic_project(x_series({"10": 2, "011": 1}, 4))
        for s in (low + high, high + low, low - high, high - low):
            assert s.max_weight == 2 and list(s.terms) == [b"\x00\x01"]
        assert (low + high).terms == {b"\x00\x01": 3}


class TestJson:
    def test_round_trip_and_sorting(self):
        f = Series(X, 5, {b"\x00\x00\x01": Fraction(1, 3), b"\x01": 2,
                          b"\x00\x01": Fraction(-2, 7)})
        data = series_to_json(f)
        assert [t["word"] for t in data["terms"]] == ["1", "01", "001"]
        assert data["terms"][2] == {"word": "001", "num": "1", "den": "3"}
        assert series_from_json(data) == f

    def test_constant_term_round_trip(self):
        # the empty word is the constant term
        f = Series(X, 2, {b"": Fraction(-3, 2), b"\x01\x00": 4})
        data = series_to_json(f)
        assert data["terms"][0] == {"word": "", "num": "-3", "den": "2"}
        assert series_from_json(data) == f

    def test_byte_stable(self):
        f = Series(X, 4, {b"\x00\x01": Fraction(5, 2), b"\x01\x00": -1})
        a = json.dumps(series_to_json(f), sort_keys=True)
        b = json.dumps(series_to_json(series_from_json(series_to_json(f))), sort_keys=True)
        assert a == b

    @pytest.mark.parametrize("field", ["alphabet", "maxWeight", "terms"])
    def test_missing_field_is_named(self, field):
        data = series_to_json(x_series({"01": 1}, 3))
        del data[field]
        with pytest.raises(ValueError, match="lacks the field '%s'" % field):
            series_from_json(data)
