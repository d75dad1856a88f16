import itertools
import random
from fractions import Fraction

import pytest

from ncds.braid import (SIGMA, TAU, CocycleElement, chord_alphabet,
                        chord_series, coface, coface_images, cocycle_mul,
                        cyclic_defect_pi23, defect, express_chord,
                        insert_triple, p5_relations, permute_strands,
                        pi_alphabet, pi_coface, pi_decompose, project_strand,
                        r23_relations, rewrite_chord, rho_kks)
from ncds.coaction import change_of_variable, r_series, reduced_coaction
from ncds.lie import is_skew, lyndon_basis
from ncds.series import (LinearMorphism, Series, fox_derivative,
                         one_letter_alphabet, substitute)

from conftest import (X, random_lie, ref_expand_terms, ref_pi_coface,
                      ref_pi_decompose, x_series)

G = chord_alphabet()


def g_series(terms, mw):
    return Series(G, mw, {bytes(G.index(n) for n in word): c
                          for word, c in terms.items()})


def psi3():
    b = lyndon_basis(3).series()
    return b[0] - b[1]


def one_letter(coeffs, mw):
    S = one_letter_alphabet()
    return Series(S, mw, {bytes(n): c for n, c in coeffs.items()})


class TestRewrite:
    def test_x15(self):
        assert rewrite_chord(1, 5) == {"23": 1, "24": 1, "34": 1}

    def test_x13(self):
        assert rewrite_chord(1, 3) == {"12": -1, "23": -1, "45": 1}

    def test_x25(self):
        assert rewrite_chord(2, 5) == {"12": -1, "23": -1, "24": -1}

    def test_symmetric_and_self(self):
        assert rewrite_chord(5, 1) == rewrite_chord(1, 5)
        assert rewrite_chord(2, 4) == {"24": 1}
        with pytest.raises(ValueError):
            rewrite_chord(3, 3)

    def test_strand_sums_vanish(self):
        for i in range(1, 6):
            total = {}
            for j in range(1, 6):
                if j == i:
                    continue
                for name, c in rewrite_chord(i, j).items():
                    total[name] = total.get(name, 0) + c
            assert all(v == 0 for v in total.values())

    def test_express_chord_in_pi23_basis(self):
        names = pi_alphabet("23").letters
        assert express_chord(4, 5, names) == {"12": 1, "13": 1, "23": 1}
        assert express_chord(1, 5, names) == {"23": 1, "24": 1, "34": 1}
        # round trip through G coordinates
        for i in range(1, 5):
            for j in range(i + 1, 6):
                via = Series.zero(G, 1)
                for name, c in express_chord(i, j, names).items():
                    k, l = int(name[0]), int(name[1])
                    via = via + chord_series(k, l).scale(c)
                assert via == chord_series(i, j)

    def test_express_chord_rejects_non_basis(self):
        # x13 = -x12 - x23 + x45, so these five chords span only four dimensions
        with pytest.raises(ValueError, match="no unique coordinates"):
            express_chord(1, 4, ("12", "23", "34", "45", "13"))


class TestInsertTriple:
    def test_canonical_chords(self):
        com = x_series({"01": 1, "10": -1}, 2)
        assert insert_triple(com, 1, 2, 3) == g_series(
            {("12", "23"): 1, ("23", "12"): -1}, 2)

    def test_rewritten_chord(self):
        com = x_series({"01": 1, "10": -1}, 2)
        got = insert_triple(com, 2, 1, 5)
        x12 = g_series({("12",): 1}, 2)
        x15 = g_series({("23",): 1, ("24",): 1, ("34",): 1}, 2)
        assert got == x12 * x15 - x15 * x12

    def test_letter(self):
        assert insert_triple(x_series({"0": 1}, 1), 5, 4, 3) == g_series({("45",): 1}, 1)

    def test_rejects_repeated_strand(self):
        with pytest.raises(ValueError):
            insert_triple(x_series({"0": 1}, 1), 1, 2, 1)


class TestDefect:
    def test_zero(self):
        assert defect(Series.zero(X, 3)).is_zero

    def test_pr2_of_alpha_commutator(self):
        alpha = defect(x_series({"01": 1, "10": -1}, 2))
        assert project_strand(alpha, 2).is_zero

    def test_alpha_equals_alpha_hat_after_change_of_variable(self):
        # equality holds in the enveloping algebra: representatives differ by
        # disjoint-chord commutators, so compare modulo the relation ideal
        from ncds.braid import in_relation_ideal
        for psi in (x_series({"01": 1, "10": -1}, 2), psi3()):
            lhs = defect(psi, "alpha")
            rhs = defect(change_of_variable(psi), "alpha_hat")
            assert in_relation_ideal(lhs - rhs)

    def test_cyclic_form_for_skew(self):
        psi = psi3()
        cyclic = insert_triple(psi, 1, 2, 3) + insert_triple(psi, 2, 3, 4) \
            + insert_triple(psi, 3, 4, 5) + insert_triple(psi, 4, 5, 1) \
            + insert_triple(psi, 5, 1, 2)
        assert defect(psi) == cyclic

    def test_rejects_non_lie(self):
        with pytest.raises(ValueError):
            defect(x_series({"01": 1}, 2))


class TestCoface:
    def test_1_2_34_flavor23(self):
        psi = x_series({"01": 1}, 2)
        expected = substitute(psi, LinearMorphism.by_name(X, pi_alphabet("23"), {
            "x0": {"12": 1}, "x1": {"23": 1, "24": 1}}))
        assert coface(psi, "1,2,34", "23") == expected

    def test_2_3_4_flavor34(self):
        eta = x_series({"01": 1, "10": -1}, 2)
        p34 = pi_alphabet("34")
        got = coface(eta, "2,3,4", "34")
        x24 = Series.letter(p34, "24", 2)
        x34 = Series.letter(p34, "34", 2)
        assert got == x24 * x34 - x34 * x24

    def test_identity_coface(self):
        psi = x_series({"01": 1, "001": -2}, 3)
        got = coface(psi, "1,2,3", "23")
        assert got == substitute(psi, LinearMorphism.by_name(
            X, pi_alphabet("23"), {"x0": {"12": 1}, "x1": {"23": 1}}))

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            coface(x_series({"0": 1}, 1), "1,4,2", "23")


class TestProjectStrand:
    def test_paper_table_via_rewrites(self):
        # pr_2 on every chord matches the explicit table
        x0 = x_series({"0": 1}, 1)
        x1 = x_series({"1": 1}, 1)
        xinf = -1 * x0 - x1
        expected = {(1, 2): None, (1, 3): xinf, (1, 4): x0, (1, 5): x1,
                    (2, 3): None, (2, 4): None, (2, 5): None, (3, 4): x1,
                    (3, 5): x0, (4, 5): xinf}
        for (i, j), value in expected.items():
            got = project_strand(chord_series(i, j), 2)
            if value is None:
                assert got.is_zero
            else:
                assert got == value

    def test_kernel_generators(self):
        for name in ("12", "23", "24"):
            assert project_strand(g_series({(name,): 1}, 1), 2).is_zero

    def test_lemma_skew_all_strands(self, rng):
        for w in range(2, 8):
            psi = random_lie(w, rng, skew=True)
            alpha = defect(psi)
            for i in range(1, 6):
                assert project_strand(alpha, i).is_zero, (w, i)

    def test_morphism_property(self):
        # pr_i respects products (it is an algebra map on representatives)
        a = g_series({("12", "34"): 2, ("45",): 1}, 2)
        b = g_series({("23",): 1, ("34",): -1}, 2)
        for i in (1, 2, 5):
            assert project_strand(a * b, i) == \
                project_strand(a, i) * project_strand(b, i)


class TestPermuteStrands:
    def test_tau_on_x12(self):
        assert permute_strands(g_series({("12",): 1}, 1), TAU) == g_series({("45",): 1}, 1)

    def test_sigma_on_x12(self):
        assert permute_strands(g_series({("12",): 1}, 1), SIGMA) == g_series({("23",): 1}, 1)

    def test_sigma_on_x45(self):
        got = permute_strands(g_series({("45",): 1}, 1), SIGMA)
        assert got == g_series({("23",): 1, ("24",): 1, ("34",): 1}, 1)

    def test_dihedral_symmetry_of_alpha(self, rng):
        for w in (2, 3, 4, 5):
            psi = random_lie(w, rng, skew=True)
            alpha = defect(psi)
            assert permute_strands(alpha, SIGMA) == alpha
            assert permute_strands(alpha, TAU) == -alpha

    def test_relabelled_legs_equal_permuted_defect(self, rng):
        # the lemma suite's alpha^sigma (the legs relabelled before psi is
        # inserted) against relabelling the expanded defect afterwards
        for w in range(2, 7):
            psi = random_lie(w, rng, skew=True)
            for form in ("alpha", "alpha_hat"):
                for perm in (SIGMA, TAU):
                    assert defect(psi, form, perm=perm) == \
                        permute_strands(defect(psi, form), perm), (w, form, perm)


class TestRhoKks:
    def test_diagonal(self):
        x0 = x_series({"0": 1}, 3)
        x1 = x_series({"1": 1}, 3)
        assert rho_kks(x0, x0) == x0
        assert rho_kks(x0, x1).is_zero

    def test_product_rules(self):
        x0 = x_series({"0": 1}, 3)
        w01 = x_series({"01": 1}, 3)
        assert rho_kks(w01, x0).is_zero
        assert rho_kks(x0, w01) == w01

    def test_fox_pairing_axioms_random(self, rng):
        # left Fox derivative in the first slot, right Fox in the second
        def rand(mw):
            terms = {bytes(rng.randint(0, 1) for _ in range(rng.randint(0, mw))):
                     rng.randint(-3, 3) for _ in range(4)}
            return Series(X, 6, terms)

        for _ in range(5):
            a, b, c = rand(2), rand(2), rand(2)
            eps = lambda s: s.constant_term()
            lhs = rho_kks(a * b, c)
            rhs = a * rho_kks(b, c) + rho_kks(a, c).scale(eps(b))
            assert lhs == rhs
            lhs = rho_kks(a, b * c)
            rhs = rho_kks(a, b) * c + rho_kks(a, c).scale(eps(b))
            assert lhs == rhs


class TestCocycleAlgebra:
    def test_module_squares_to_zero(self):
        e = CocycleElement.of(4, {}, {b"": 1})
        assert cocycle_mul(e, e).is_zero

    def test_module_tensor_products(self):
        e = CocycleElement.of(4, {}, {b"": 1})
        x0_tensor = CocycleElement.of(4, {(b"\x00", b""): 1}, {})
        left = cocycle_mul(e, x0_tensor)
        assert left.tensor == {} and left.module == {b"\x00": 1}
        right = cocycle_mul(x0_tensor, e)
        assert right.is_zero

    def test_r23_relation_image(self):
        # pi-image of [x13,x23] - [x23,x12] via explicit cocycle products
        one_x0 = CocycleElement.of(4, {(b"", b"\x00"): 1}, {})
        e = CocycleElement.of(4, {}, {b"": 1})
        x0_one = CocycleElement.of(4, {(b"\x00", b""): 1}, {})
        lhs = cocycle_mul(one_x0, e.scale(-1)) - cocycle_mul(e.scale(-1), one_x0)
        assert lhs.tensor == {} and lhs.module == {b"\x00": -1}
        rhs = cocycle_mul(e.scale(-1), x0_one) - cocycle_mul(x0_one, e.scale(-1))
        assert rhs.module == {b"\x00": -1}

    def test_associativity_random(self, rng):
        def rand_elt():
            t = {}
            for _ in range(2):
                a = bytes(rng.randint(0, 1) for _ in range(rng.randint(0, 2)))
                b = bytes(rng.randint(0, 1) for _ in range(rng.randint(0, 2)))
                t[(a, b)] = rng.randint(-2, 2)
            m = {bytes(rng.randint(0, 1) for _ in range(rng.randint(0, 2))):
                 rng.randint(-2, 2)}
            return CocycleElement.of(8, {k: v for k, v in t.items() if v},
                                  {k: v for k, v in m.items() if v})

        for _ in range(8):
            u, v, w = rand_elt(), rand_elt(), rand_elt()
            assert cocycle_mul(cocycle_mul(u, v), w) == cocycle_mul(u, cocycle_mul(v, w))


def _seeded_cocycle_parts(n=16, seed=20241015):
    """(max_weight, tensor dict, module dict) with mixed weights, keys above
    max_weight, zero and Fraction coefficients."""
    rng = random.Random(seed)

    def word(k):
        return bytes(rng.randint(0, 1) for _ in range(k))

    def coef():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    out = []
    for _ in range(n):
        mw = rng.randint(0, 6)
        tensor = {(word(rng.randint(0, 3)), word(rng.randint(0, 3))): coef()
                  for _ in range(rng.randint(0, 8))}
        module = {word(rng.randint(0, 5)): coef() for _ in range(rng.randint(0, 5))}
        out.append((mw, tensor, module))
    return out


def _tensor_kept(tensor, mw):
    return {k: c for k, c in tensor.items() if c and len(k[0]) + len(k[1]) <= mw}


def _module_kept(module, mw):
    return {w: c for w, c in module.items() if c and len(w) + 1 <= mw}


def _dict_sum(p, q, sign=1):
    out = dict(p)
    for k, c in q.items():
        out[k] = out.get(k, 0) + sign * c
    return {k: c for k, c in out.items() if c}


class TestCocycleAsSparseSeries:
    """A CocycleElement is one SparseSeries over tensor keys (a, b) and module
    keys (w,); its arithmetic is checked against dict arithmetic on the
    tensor and module views."""

    @staticmethod
    def elements():
        return [CocycleElement.of(mw, t, m) for mw, t, m in _seeded_cocycle_parts()]

    def test_of_truncates_by_key_weight_and_round_trips(self):
        for mw, tensor, module in _seeded_cocycle_parts():
            e = CocycleElement.of(mw, tensor, module)
            assert e.tensor == _tensor_kept(tensor, mw)
            assert e.module == _module_kept(module, mw)
            assert e.terms == {**e.tensor, **{(w,): c for w, c in e.module.items()}}
            assert e.max_weight == mw and e.alphabet == X
            assert CocycleElement.of(mw, e.tensor, e.module) == e
            assert CocycleElement.from_terms(X, mw, e.terms) == e
            assert e.module_series() == Series(X, mw, e.module)

    def test_module_key_weighs_one_more_than_its_word(self):
        e = CocycleElement.of(2, {(b"\x00", b"\x01"): 1, (b"\x00\x00", b"\x01"): 1},
                              {b"\x00\x01": 1, b"\x00": 2, b"": 3})
        assert e.tensor == {(b"\x00", b"\x01"): 1}
        assert e.module == {b"\x00": 2, b"": 3}
        assert CocycleElement.key_weight((b"\x00",)) == 2
        assert CocycleElement.key_weight((b"\x00", b"")) == 1
        assert CocycleElement.of(0, {(b"", b""): 5}, {b"": 1}).terms == {(b"", b""): 5}

    def test_arithmetic_matches_dict_arithmetic_on_the_views(self):
        elements = self.elements()
        for u, v in itertools.product(elements, repeat=2):
            mw = min(u.max_weight, v.max_weight)
            third = Fraction(-2, 3)
            for got, tensor, module, weight in (
                    (u + v, _dict_sum(u.tensor, v.tensor), _dict_sum(u.module, v.module), mw),
                    (u - v, _dict_sum(u.tensor, v.tensor, -1),
                     _dict_sum(u.module, v.module, -1), mw),
                    (u.scale(third), {k: third * c for k, c in u.tensor.items()},
                     {k: third * c for k, c in u.module.items()}, u.max_weight),
                    (u.scale(0), {}, {}, u.max_weight)):
                assert isinstance(got, CocycleElement)
                assert got.tensor == _tensor_kept(tensor, weight)
                assert got.module == _module_kept(module, weight)
                assert got.max_weight == weight
                assert got.is_zero == (not got.tensor and not got.module)
            assert (u == v) == (u.tensor == v.tensor and u.module == v.module)
            assert (u - u).is_zero
        assert any(not e.is_zero for e in elements)
        assert any(e.is_zero for e in elements)

    def test_not_equal_to_its_module_series(self):
        e = CocycleElement.of(3, {}, {b"\x00": 1})
        assert e != e.module_series() and e.module_series() != e


class TestPiMaps:
    def test_kills_r23_relations(self):
        for rel in r23_relations():
            assert pi_decompose(rel, "23").is_zero

    def test_word_examples(self):
        p23 = pi_alphabet("23")
        w = Series.word(p23, ("23", "12"), 2)
        got = pi_decompose(w, "23")
        assert got.module == {b"\x00": -1} and got.tensor == {}
        w2 = Series.word(p23, ("12", "23"), 2)
        got2 = pi_decompose(w2, "23")
        assert got2.module == {} and got2.tensor == {}

    def test_mu_instance(self):
        # [x12+x13, x24+x34] maps to mu([x0,x1]) = 0 in the module part
        p23 = pi_alphabet("23")
        u = Series.letter(p23, "12", 2) + Series.letter(p23, "13", 2)
        v = Series.letter(p23, "24", 2) + Series.letter(p23, "34", 2)
        got = pi_decompose(u * v - v * u, "23")
        assert got.module == {}

    COFACES = ("1,2,3", "2,3,4", "12,3,4", "1,23,4", "1,2,34")

    def test_pi_coface_matches_pi_decompose(self, rng):
        for flavor in ("23", "34"):
            for w in range(1, 7):
                psi = random_lie(w, rng, skew=(flavor == "23"))
                for name in self.COFACES:
                    fast = pi_coface(psi, name, flavor)
                    slow = pi_decompose(coface(psi, name, flavor), flavor)
                    ref = ref_pi_coface(psi, coface_images(name, flavor), flavor)
                    assert fast == slow == ref and not ref.is_zero

    def test_pi_decompose_non_homogeneous(self, rng):
        # mixed weights, the empty word and Fraction coefficients, checked
        # against the cocycle_mul fold
        for flavor in ("23", "34"):
            p = pi_alphabet(flavor)
            for mw in (0, 1, 3, 5):
                terms = {}
                for _ in range(60):
                    word = bytes(rng.randrange(5) for _ in range(rng.randint(0, mw)))
                    terms[word] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                e = Series(p, mw, terms)
                got = pi_decompose(e, flavor)
                assert got == ref_pi_decompose(e, flavor)
                assert got.max_weight == mw

    def test_one_word_inputs(self):
        # one word alone goes through the engine's first-letter recursion like
        # any other input; each is checked against the per-word references
        coefs = (1, -2, Fraction(3, 4))
        for flavor in ("23", "34"):
            p = pi_alphabet(flavor)
            for n in range(0, 5):
                for k, word in enumerate(itertools.product(range(5), repeat=n)):
                    e = Series(p, n + k % 2, {bytes(word): coefs[k % 3]})
                    got = pi_decompose(e, flavor)
                    assert got == ref_pi_decompose(e, flavor), (flavor, word)
                    assert got.max_weight == e.max_weight
            for n in range(0, 7):
                for k, word in enumerate(itertools.product(range(2), repeat=n)):
                    psi = Series(X, n, {bytes(word): coefs[k % 3]})
                    for name in self.COFACES:
                        got = pi_coface(psi, name, flavor)
                        want = ref_pi_coface(psi, coface_images(name, flavor), flavor)
                        assert got == want, (flavor, name, word)

    def test_single_word_path_merges_equal_keys(self):
        # one word, through the recursion: under the coface 1,23,4 of
        # pi^{2,3}, x0 maps to x0 (x) 1 + 1 (x) x0, so x0 x0 reaches
        # x0 (x) x0 twice and the two merge, besides the rho term x0 in the
        # module
        psi = x_series({"00": 1}, 2)
        got = pi_coface(psi, "1,23,4", "23")
        assert got == ref_pi_coface(psi, coface_images("1,23,4", "23"), "23")
        assert got.tensor == {(b"\x00\x00", b""): 1, (b"\x00", b"\x00"): 2,
                              (b"", b"\x00\x00"): 1}
        assert got.module == {b"\x00": 1}

    def test_pi_coface_rejects_other_alphabets(self):
        # a series over the chord letters, or over one letter, is not a psi
        for psi in (Series.letter(chord_alphabet(), "45", 2),
                    Series(one_letter_alphabet(), 2, {b"\x00\x00": 1})):
            for flavor in ("23", "34"):
                with pytest.raises(ValueError, match="x0, x1"):
                    pi_coface(psi, "1,2,3", flavor)

    def test_unknown_flavor_rejected(self, rng):
        psi = random_lie(3, rng)
        e = Series.letter(pi_alphabet("23"), "12", 3)
        calls = (lambda: pi_coface(psi, "1,2,3", "99"),
                 lambda: coface_images("1,2,3", "99"),
                 lambda: coface(psi, "1,2,3", "99"),
                 lambda: pi_decompose(e, "99"),
                 lambda: pi_alphabet("99"))
        for call in calls:
            with pytest.raises(ValueError, match="flavor"):
                call()


class TestLetterMapsAgainstReference:
    """Every letter map the braid layer builds, applied to seeded input, is
    checked against the per-word expansion (conftest.ref_expand_terms)."""

    @pytest.fixture
    def checked(self, monkeypatch):
        seen = []
        real = LinearMorphism.apply

        def apply(m, f):
            got = real(m, f)
            assert got.terms == ref_expand_terms(f.terms, m.images)
            seen.append(m)
            return got

        monkeypatch.setattr(LinearMorphism, "apply", apply)
        return seen

    def test_strand_maps(self, rng, checked):
        for w in (3, 5):
            psi = random_lie(w, rng, skew=True)
            alpha = defect(psi)
            permute_strands(alpha, SIGMA)
            permute_strands(alpha, TAU)
            for i in range(1, 6):
                project_strand(alpha, i)
            insert_triple(psi, 2, 4, 1)
            defect(psi, "alpha_hat")
        multi = [m for m in checked
                 if m.source == X and any(len(img) > 1 for img in m.images)]
        # 5 + 2 + 5 + 1 + 5 maps a weight, besides the skew symmetrization
        assert len(checked) >= 2 * 18 and multi


class TestCab23Identities:
    NAMES = ("1,2,34", "12,3,4", "1,23,4", "2,3,4", "1,2,3")

    def expected(self, psi, name):
        if name == "1,2,34":
            return -1 * fox_derivative(psi, "x1", "right")
        if name == "12,3,4":
            return -1 * fox_derivative(psi, "x0", "left")
        if name == "1,23,4":
            return reduced_coaction(psi)
        s_at = {"2,3,4": {"x1": 1}, "1,2,3": {"x0": -1}}[name]
        out = substitute(r_series(psi),
                         LinearMorphism.by_name(one_letter_alphabet(), X, {"s": s_at}))
        return out if name == "2,3,4" else -1 * out

    def test_on_skew_lie_series(self, rng):
        for w in (2, 3, 4, 5):
            for _ in range(5):
                psi = random_lie(w, rng, skew=True)
                for name in self.NAMES:
                    got = pi_coface(psi, name, "23").module_series()
                    assert got == self.expected(psi, name), (w, name)


class TestCabling34Identities:
    def expected(self, eta, name):
        dr1 = fox_derivative(eta, "x1", "right")
        if name == "1,2,34":
            return reduced_coaction(eta)
        if name in ("2,3,4", "12,3,4"):
            x0_at = {"2,3,4": {"x1": 1}, "12,3,4": {"x0": 1, "x1": 1}}[name]
            return -1 * substitute(dr1, LinearMorphism.by_name(X, X, {"x0": x0_at}))
        if name == "1,2,3":
            return Series.zero(X, eta.max_weight)
        return -1 * dr1

    def test_on_lie_series(self, rng):
        for w in (1, 2, 3, 4, 5):
            for _ in range(5):
                eta = random_lie(w, rng)
                for name in ("1,2,34", "2,3,4", "12,3,4", "1,2,3", "1,23,4"):
                    got = pi_coface(eta, name, "34").module_series()
                    assert got == self.expected(eta, name), (w, name)


class TestPi0SkewCriterion:
    def test_skew_iff_pi0_of_cyclic_alpha_vanishes(self, rng):
        for w in (2, 3, 4):
            skew = random_lie(w, rng, skew=True)
            out = cyclic_defect_pi23(skew)
            assert out.tensor == {}
            non_skew = lyndon_basis(w).series()[0]
            if is_skew(non_skew):
                continue
            out2 = cyclic_defect_pi23(non_skew)
            assert out2.tensor != {}


class TestRelations:
    def test_count_and_shape(self):
        rels = p5_relations()
        assert len(rels) == 15
        for (_pair, rel) in rels:
            assert not rel.is_zero
            assert set(rel.alphabet.letters) == set(G.letters)

    def test_r23_relations_hold_in_p5(self):
        # each presentation relation, rewritten into chord coordinates, lies
        # in the span of the fifteen disjoint-chord commutators
        from ncds.braid import in_relation_ideal
        p23 = pi_alphabet("23")
        images = LinearMorphism.by_name(p23, G, {
            name: rewrite_chord(int(name[0]), int(name[1])) for name in p23.letters})
        for rel in r23_relations():
            assert in_relation_ideal(substitute(rel, images))
