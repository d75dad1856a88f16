import itertools
import json
import random
from fractions import Fraction

import pytest

from ncds.coaction import change_of_variable
from ncds.kv import (TangentialDerivation, _div_in_target_line, _krv1_in_eta,
                     _sder_constraint, divergence,
                     hamiltonian, hamiltonian_inverse, is_cyclic_invariant, is_sder,
                     krv1_eta_functionals, krv1_residual, krv1skew_space, krv2_space,
                     nc_krv2_fit, necklace_bracket, necklace_cobracket, potential,
                     same_derivation, sder_functionals, tangential_pair_of,
                     tder_apply, tder_bracket)
from ncds.lie import (SolutionSpace, integer_multiples, lyndon_basis, lyndon_words,
                      skew_constraint, solve_space)
from ncds.series import (CyclicSeries, Series, cyclic_project,
                         one_letter_alphabet, symmetrize)

from conftest import (X, all_words, assemble_rows, callable_rows, family_rows,
                      random_lie, space_bytes, space_from_json, x_series)


def cyc(terms, mw):
    return CyclicSeries(X, mw, {bytes(int(ch) for ch in w): c
                                for w, c in terms.items()})


def psi3(mw=3):
    b = lyndon_basis(3).series()
    return (b[0] - b[1]).truncated(mw)


def pair(t1, t2, mw):
    return TangentialDerivation.of(x_series(t1, mw), x_series(t2, mw))


def all_cyclic_words(weight):
    seen = []
    found = set()
    for bits in itertools.product((0, 1), repeat=weight):
        w = bytes(bits)
        canon = min(w[i:] + w[:i] for i in range(len(w)))
        if canon not in found:
            found.add(canon)
            seen.append(canon)
    return seen


def _linear_terms(u):
    """The canonical pair's normalization as rows: no x0 in a1, no x1 in a2."""
    return {"a1": u.terms.get((0, b"\x00"), 0), "a2": u.terms.get((1, b"\x01"), 0)}


class TestLyndonWordRows:
    """The special-derivation condition and krv1 on eta are Lie-valued, so
    on a Lie chart they need one row per Lyndon word of weight + 1."""

    @pytest.mark.parametrize("w", range(1, 10))
    def test_sder_rows_are_the_callable_rows_at_lyndon_words(self, w):
        coords = [(slot, word) for slot in (0, 1) for word in all_words(w)]
        assert family_rows(sder_functionals(w)) == callable_rows(
            _sder_constraint, TangentialDerivation, w, coords, lyndon_words(w + 1))

    @pytest.mark.parametrize("w", range(1, 10))
    def test_krv1_eta_rows_are_the_callable_rows_at_lyndon_words(self, w):
        assert family_rows(krv1_eta_functionals(w)) == callable_rows(
            _krv1_in_eta, Series, w, all_words(w), lyndon_words(w + 1))

    @pytest.mark.parametrize("w", range(1, 8))
    def test_krv2_matches_the_callable_pairs_solve(self, w):
        # krv2 has no words-chart route: the reference is the pairs chart
        # with the callable special-derivation condition and the linear-term
        # rows
        want = solve_space(w, [_sder_constraint, _div_in_target_line(w), _linear_terms],
                           space="krv2", chart="pairs")
        assert space_bytes(krv2_space(w)) == space_bytes(want)

    @pytest.mark.parametrize("w", range(1, 10))
    def test_krv2_needs_no_linear_term_rows(self, w):
        # the normalization "no x0 in a1, no x1 in a2" as rows of its own
        # changes nothing: at w >= 2 both rows are zero on the chart, and at
        # w = 1 the divergence rows at x0 and x1 are the same two rows
        want = solve_space(w, [sder_functionals(w), _div_in_target_line(w), _linear_terms],
                           space="krv2", chart="pairs")
        assert space_bytes(krv2_space(w)) == space_bytes(want)
        columns = [TangentialDerivation(X, w, {(slot, k): c for k, c in s.terms.items()})
                   for slot in (0, 1) for s in lyndon_basis(w).series()]
        assert any(any(_linear_terms(u).values()) for u in columns) == (w == 1)

    @pytest.mark.parametrize("w", range(2, 10))
    def test_krv1skew_matches_the_callable_eta_solve(self, w):
        # krv1 on eta over the Lyndon chart, then skew symmetry over the
        # solved chart of the psis, both as callables
        etas = solve_space(w, [_krv1_in_eta], space="krv1skew").basis
        psis = SolutionSpace("krv1skew", w, [change_of_variable(e)
                                             for e in integer_multiples(etas)])
        want = solve_space(w, [skew_constraint], space="krv1skew", chart=psis)
        assert space_bytes(krv1skew_space(w)) == space_bytes(want)


class TestTderApply:
    def test_on_letter(self):
        u = pair({"1": 1}, {"0": 1}, 4)
        got = tder_apply(u, x_series({"0": 1}, 4))
        assert got == x_series({"01": 1, "10": -1}, 4)

    def test_on_unit(self):
        u = pair({"1": 1}, {"0": 1}, 4)
        assert tder_apply(u, Series.unit(X, 4)).is_zero

    def test_leibniz_on_word(self):
        u = pair({"1": 1}, {"0": 1}, 4)
        got = tder_apply(u, x_series({"01": 1}, 4))
        com = x_series({"01": 1, "10": -1}, 4)
        x0 = x_series({"0": 1}, 4)
        x1 = x_series({"1": 1}, 4)
        assert got == com * x1 + x0 * (-1 * com)


class TestTderBracket:
    def test_self(self):
        u = pair({"1": 1}, {"0": 1}, 6)
        assert tder_bracket(u, u).is_zero

    def test_zero(self):
        u = pair({"1": 1}, {"0": 1}, 6)
        z = pair({}, {}, 6)
        assert tder_bracket(u, z).is_zero

    def test_defining_property(self, rng):
        x0 = Series.letter(X, "x0", 9)
        x1 = Series.letter(X, "x1", 9)
        for _ in range(4):
            u = TangentialDerivation.of(random_lie(3, rng, max_weight=9),
                                        random_lie(2, rng, max_weight=9))
            v = TangentialDerivation.of(random_lie(2, rng, max_weight=9),
                                        random_lie(4, rng, max_weight=9))
            br = tder_bracket(u, v)
            for gen in (x0, x1):
                lhs = tder_apply(br, gen)
                rhs = tder_apply(u, tder_apply(v, gen)) \
                    - tder_apply(v, tder_apply(u, gen))
                assert lhs == rhs


class TestIsSder:
    def test_special_example(self):
        assert is_sder(pair({"1": 1}, {"0": 1}, 4))

    def test_not_special(self):
        assert not is_sder(pair({"1": 1}, {}, 4))

    def test_zero(self):
        assert is_sder(pair({}, {}, 4))


class TestDivergence:
    def test_special_pair(self):
        assert divergence(pair({"1": 1}, {"0": 1}, 4)).is_zero

    def test_word_pair(self):
        got = divergence(pair({"01": 1}, {}, 4))
        assert got == cyc({"01": 1}, 4)

    def test_zero(self):
        assert divergence(pair({}, {}, 4)).is_zero


class TestKrv1:
    def test_zero(self):
        assert krv1_residual(Series.zero(X, 4)).is_zero

    def test_commutator_fails(self):
        com = x_series({"01": 1, "10": -1}, 3)
        res = krv1_residual(com)
        # [x0,[x0,x1]] - [x1,[x0,x1]]
        b3 = lyndon_basis(3).series()
        assert res == b3[0] + b3[1]
        assert not res.is_zero

    def test_equivalence_with_sder(self, rng):
        for w in (2, 3, 4):
            psi = random_lie(w, rng)
            u = tangential_pair_of(psi)
            assert (krv1_residual(psi).is_zero) == is_sder(u)


class TestPotential:
    def test_commutator(self):
        com = x_series({"01": 1, "10": -1}, 2)
        h = potential(tangential_pair_of(com))
        expected = (x_series({"0": 1}, 3) - x_series({"1": 1}, 3)) \
            * x_series({"01": 1, "10": -1}, 3)
        assert h == expected

    def test_zero(self):
        assert potential(tangential_pair_of(Series.zero(X, 3))).is_zero

    def test_weight_shift(self):
        h = potential(tangential_pair_of(psi3()))
        assert h.weights() == [4]


class TestNcKrv2Fit:
    def test_commutator(self):
        com = x_series({"01": 1, "10": -1}, 2)
        residual, f = nc_krv2_fit(tangential_pair_of(com))
        assert residual.is_zero
        S = one_letter_alphabet()
        assert f == Series(S, 3, {bytes(2): 1})

    def test_zero(self):
        residual, f = nc_krv2_fit(tangential_pair_of(Series.zero(X, 3)))
        assert residual.is_zero and f.is_zero

    def test_rc0_weight3_generator(self):
        residual, f = nc_krv2_fit(tangential_pair_of(psi3()))
        assert residual.is_zero


class TestCyclicInvariance:
    def test_full_orbit(self):
        assert is_cyclic_invariant(x_series({"01": 1, "10": 1}, 2))

    def test_partial_orbit(self):
        assert not is_cyclic_invariant(x_series({"01": 1}, 2))

    def test_unequal_orbit(self):
        # the whole rotation class is present, its coefficients differ
        assert not is_cyclic_invariant(x_series({"01": 1, "10": 2}, 2))
        assert not is_cyclic_invariant(x_series({"001": 1, "010": 1, "100": 3}, 3))

    def test_h_psi_for_krv1_solutions(self):
        # observed per weight, not assumed: h of the weight-3 rc0 generator
        h = potential(tangential_pair_of(psi3()))
        assert is_cyclic_invariant(h)


class TestHamiltonian:
    def test_two_letter_word(self):
        u = hamiltonian(cyc({"01": 1}, 2))
        assert u == pair({"1": 1}, {"0": 1}, 2)

    def test_weight3_word(self):
        u = hamiltonian(cyc({"001": 1}, 3))
        assert u == pair({"01": 1, "10": 1}, {"00": 1}, 3)

    def test_inverse(self, rng):
        for w in range(2, 7):
            terms = {}
            for word in all_cyclic_words(w):
                terms[word] = rng.randint(-3, 3)
            c = CyclicSeries(X, w, terms)
            assert hamiltonian_inverse(hamiltonian(c)) == c

    def test_lands_in_sder_and_injective(self):
        for w in (2, 3, 4, 5):
            words = all_cyclic_words(w)
            images = []
            for word in words:
                u = hamiltonian(CyclicSeries(X, w, {word: 1}))
                assert is_sder(u)
                images.append(u)
            # injective on raw pairs: images of distinct classes independent
            from ncds.lie import canonical_series_basis
            assert len(canonical_series_basis(images)) == len(words)

    def test_rejects_low_weight(self):
        with pytest.raises(ValueError):
            hamiltonian(cyc({"0": 1}, 1))


class TestDivHamiltonianIdentity:
    def test_worked_instance(self):
        # |x0^2 x1|: both sides equal |x0 x1|
        c = cyc({"001": 1}, 3)
        lhs = divergence(hamiltonian(c))
        from ncds.coaction import reduced_coaction
        rhs = cyclic_project(reduced_coaction(symmetrize(c))).scale(Fraction(1, 2))
        assert lhs == rhs == cyc({"01": 1}, 3)

    def test_all_cyclic_words_up_to_6(self):
        from ncds.coaction import reduced_coaction
        for m in range(2, 7):
            for word in all_cyclic_words(m):
                c = CyclicSeries(X, m, {word: 1})
                lhs = divergence(hamiltonian(c))
                rhs = cyclic_project(reduced_coaction(symmetrize(c))).scale(
                    Fraction(1, m - 1))
                assert lhs == rhs, word


class TestNecklaceBracket:
    def test_self_bracket(self):
        a = cyc({"001": 1}, 8)
        assert necklace_bracket(a, a).is_zero

    def test_letters(self):
        assert necklace_bracket(cyc({"0": 1}, 8), cyc({"1": 1}, 8)).is_zero

    def test_hamiltonian_oracle_example(self):
        # {|x0 x1|, |x0^2 x1|} agrees with H^{-1}([H -, H -]) as derivations
        a = cyc({"01": 1}, 8)
        b = cyc({"001": 1}, 8)
        br = necklace_bracket(a, b)
        commutator = tder_bracket(hamiltonian(a), hamiltonian(b))
        lhs = hamiltonian(br) if not br.is_zero else pair({}, {}, 8)
        assert same_derivation(lhs, commutator)

    def test_h_morphism_arbiter_weights_up_to_5(self):
        # the shipped reading must make H a Lie algebra morphism into sDer
        for wa in range(2, 6):
            for wb in range(2, 6):
                if wa + wb > 8:
                    continue
                for a_word in all_cyclic_words(wa):
                    for b_word in all_cyclic_words(wb):
                        a = CyclicSeries(X, 12, {a_word: 1})
                        b = CyclicSeries(X, 12, {b_word: 1})
                        br = necklace_bracket(a, b)
                        lhs = (hamiltonian(br) if not br.is_zero else
                               pair({}, {}, 12))
                        rhs = tder_bracket(hamiltonian(a), hamiltonian(b))
                        assert same_derivation(lhs, rhs), (a_word, b_word)

    def test_jacobi_modulo_h_kernel(self, rng):
        words = [cyc({"01": 1}, 12), cyc({"001": 1}, 12), cyc({"0011": 1}, 12)]
        a, b, c = words
        total = necklace_bracket(a, necklace_bracket(b, c)) \
            + necklace_bracket(b, necklace_bracket(c, a)) \
            + necklace_bracket(c, necklace_bracket(a, b))
        if not total.is_zero:
            u = hamiltonian(total)
            assert same_derivation(u, pair({}, {}, 12))


class TestNecklaceCobracket:
    def test_unit(self):
        assert necklace_cobracket(CyclicSeries(X, 3, {b"": 1})).is_zero

    def test_letter(self):
        assert necklace_cobracket(cyc({"0": 1}, 3)).is_zero

    def test_frozen_value_001(self):
        # definitional evaluation under the shipped (shuffle) reading
        got = necklace_cobracket(cyc({"001": 1}, 3))
        expected = {(b"", b"\x00\x01"): 1, (b"\x00\x01", b""): -1,
                    (b"\x00", b"\x01"): -1, (b"\x01", b"\x00"): 1}
        assert got.terms == expected

    def test_antisymmetry(self, rng):
        for w in (3, 4, 5):
            for word in all_cyclic_words(w):
                d = necklace_cobracket(CyclicSeries(X, w, {word: 1}))
                flipped = {(r, l): -c for (l, r), c in d.terms.items()}
                assert d.terms == flipped

    def test_cocycle_identity_with_bracket(self):
        # delta([a,b]) = ad_a . delta(b) - ad_b . delta(a), legwise action
        from ncds.series import _iadd
        for wa, wb in ((2, 3), (3, 3), (2, 4), (3, 4)):
            for a_word in all_cyclic_words(wa):
                for b_word in all_cyclic_words(wb):
                    a = CyclicSeries(X, 12, {a_word: 1})
                    b = CyclicSeries(X, 12, {b_word: 1})
                    lhs = dict(necklace_cobracket(necklace_bracket(a, b)).terms)
                    rhs = {}

                    def ad_leg(cw, tensor, sign):
                        for (l, r), c in tensor.terms.items():
                            for w2, c2 in necklace_bracket(
                                    cw, CyclicSeries(X, 12, {l: 1})).terms.items():
                                _iadd(rhs, (w2, r), sign * c * c2)
                            for w2, c2 in necklace_bracket(
                                    cw, CyclicSeries(X, 12, {r: 1})).terms.items():
                                _iadd(rhs, (l, w2), sign * c * c2)

                    ad_leg(a, necklace_cobracket(b), 1)
                    ad_leg(b, necklace_cobracket(a), -1)
                    for k, v in rhs.items():
                        _iadd(lhs, k, -v)
                    assert not lhs, (a_word, b_word)


class TestKrv2Space:
    def test_weight1_contains_rotation_generator(self):
        space = krv2_space(1)
        member = pair({"1": 1}, {"0": 1}, 1)
        from ncds.lie import series_span_contains
        assert series_span_contains(space.basis, member)

    def test_zero_is_member(self):
        # trivially: the zero derivation lies in every solution space
        assert krv2_space(2).dimension >= 0

    def test_dimensions_small_weights(self):
        dims = {w: krv2_space(w).dimension for w in range(1, 5)}
        # cross-checked by an independent dense solve over raw pair coords
        brute = {w: _dense_krv2_dim(w) for w in range(1, 5)}
        assert dims == brute

    def test_solutions_satisfy_conditions(self):
        for w in range(1, 6):
            f_target = _f_target(w)
            for u in krv2_space(w).basis:
                assert is_sder(u)
                div = divergence(u)
                from ncds.lie import series_span_contains
                if div.is_zero:
                    continue
                assert series_span_contains([f_target], div)


def _f_target(w):
    x0 = Series.letter(X, "x0", w)
    x1 = Series.letter(X, "x1", w)
    power = Series.unit(X, w)
    for _ in range(w):
        power = power * (x0 + x1)
    return cyclic_project(power - x_series({"0" * w: 1}, w) - x_series({"1" * w: 1}, w))


def _dense_krv2_dim(w):
    # independent route: solve over raw word coefficients of (a1, a2) with
    # primitivity imposed explicitly, plus the krv conditions
    from ncds.lie import primitivity_defect
    from ncds.linalg import kernel_basis
    words = [bytes(t) for t in itertools.product((0, 1), repeat=w)]
    f_target = _f_target(w)
    values = []
    for comp in (0, 1):
        for word in words:
            s = Series(X, w, {word: 1})
            zero = Series.zero(X, w)
            u = TangentialDerivation.of(s if comp == 0 else zero,
                                        s if comp == 1 else zero)
            items = [(("p", comp, k), v) for k, v in primitivity_defect(s).items()]
            img0, img1 = u.generator_images()
            items.extend((("s", k), v) for k, v in (img0 + img1).terms.items())
            items.extend((("d", k), v) for k, v in divergence(u).terms.items())
            items.append((("n", comp),
                          s.coeff(b"\x00") if comp == 0 else s.coeff(b"\x01")))
            values.append(items)
    values.append([(("d", k), -v) for k, v in f_target.terms.items()])
    rows = assemble_rows(values, 2 * len(words) + 1)
    combos = kernel_basis(rows)
    # project off the f coordinate and count independent pairs
    pairs = []
    for vec in combos:
        a1 = Series(X, w, {word: c for word, c in zip(words, vec[:len(words)]) if c})
        a2 = Series(X, w, {word: c for word, c in zip(words, vec[len(words):2 * len(words)]) if c})
        if not (a1.is_zero and a2.is_zero):
            pairs.append(TangentialDerivation.of(a1, a2))
    from ncds.lie import canonical_series_basis
    return len(canonical_series_basis(pairs))


# -- the pair as one sparse series over (slot, word) keys ----------------------

def _seeded_series(rng, max_weight, n_terms=6):
    """Words of every length 0..max_weight with Fraction coefficients; empty
    about one time in six."""
    if rng.random() < 1 / 6:
        return Series.zero(X, max_weight)
    terms = {}
    for _ in range(n_terms):
        w = bytes(rng.randint(0, 1) for _ in range(rng.randint(0, max_weight)))
        terms[w] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return Series(X, max_weight, terms)


def _seeded_pairs(n=40):
    rng = random.Random(13)
    for _ in range(n):
        mw = rng.randint(1, 5)
        u = TangentialDerivation.of(_seeded_series(rng, mw), _seeded_series(rng, mw))
        # the second pair at another max weight, or u's slots moved slightly
        if rng.random() < 0.5:
            mv = rng.randint(1, 5)
            v = TangentialDerivation.of(_seeded_series(rng, mv), _seeded_series(rng, mv))
        else:
            v = TangentialDerivation.of(u.a1, u.a2 + _seeded_series(rng, mw, 1))
        yield u, v


class TestPairAsSparseSeries:
    def test_arithmetic_matches_slotwise_series(self):
        for u, v in _seeded_pairs():
            for got, a1, a2 in ((u + v, u.a1 + v.a1, u.a2 + v.a2),
                                (u - v, u.a1 - v.a1, u.a2 - v.a2),
                                (u.scale(Fraction(-2, 3)), u.a1.scale(Fraction(-2, 3)),
                                 u.a2.scale(Fraction(-2, 3))),
                                (u.scale(0), u.a1.scale(0), u.a2.scale(0))):
                assert isinstance(got, TangentialDerivation)
                assert got.a1 == a1 and got.a2 == a2
                assert got.max_weight == a1.max_weight == a2.max_weight
                assert got.is_zero == (a1.is_zero and a2.is_zero)
            assert (u == v) == (u.a1 == v.a1 and u.a2 == v.a2)
            assert u == TangentialDerivation.of(u.a1, u.a2)
            assert u != u.a1 and u.a1 != u

    def test_keys_are_slot_and_word(self):
        for u, _ in _seeded_pairs(10):
            assert u.terms == {**{(0, w): c for w, c in u.a1.terms.items()},
                               **{(1, w): c for w, c in u.a2.terms.items()}}
            assert TangentialDerivation.from_terms(X, u.max_weight, u.terms) == u

    def test_normalize_removes_exactly_the_two_linear_keys(self):
        linear = x_series({"0": 2, "1": -1}, 4)
        for u, _ in _seeded_pairs():
            kept = TangentialDerivation.of(u.a1 + linear, u.a2 - linear)
            assert kept.normalized().terms == {
                k: c for k, c in kept.terms.items() if k not in ((0, b"\x00"), (1, b"\x01"))}
        # of keeps every linear term; a1's x1 term and a2's x0 term do move
        # the derivation, so normalized keeps them
        u = TangentialDerivation.of(x_series({"0": 1, "1": 2}, 1),
                                    x_series({"0": 3, "1": 4}, 1))
        assert u.terms == {(0, b"\x00"): 1, (0, b"\x01"): 2, (1, b"\x00"): 3, (1, b"\x01"): 4}
        assert u.normalized().terms == {(0, b"\x01"): 2, (1, b"\x00"): 3}

    def test_one_max_weight_for_both_slots(self):
        u = TangentialDerivation.of(x_series({"01": 1}, 5), x_series({"1": 1}, 3))
        assert u.max_weight == u.a1.max_weight == u.a2.max_weight == 5
        assert u.a2 == x_series({"1": 1}, 5)

    def test_alphabet_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TangentialDerivation.of(x_series({"0": 1}, 2),
                                    Series(one_letter_alphabet(), 2, {b"\x00": 1}))

    @pytest.mark.parametrize("w", range(1, 7))
    def test_krv2_space_json_round_trip(self, w):
        space = krv2_space(w)
        data = space.to_json()
        back = space_from_json(json.loads(json.dumps(data)))
        assert back == space
        assert all(isinstance(b, TangentialDerivation) for b in back.basis)
        assert back.to_json() == data
