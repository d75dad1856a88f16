"""The word-edit forms of products with one letter (letter brackets, the
Leibniz rule, prepends, first- and last-letter filters) against the product
formulas in conftest, on seeded random series with Fraction coefficients,
linear terms and unequal max weights."""

import random
from fractions import Fraction

from ncds.coaction import ihara_derivation, meta_abelian
from ncds.kv import (_krv1_linear, divergence, hamiltonian_inverse, potential,
                     tangential_pair_of, tder_apply)
from ncds.lie import TangentialDerivation
from ncds.series import Series

from conftest import (X, random_lie, ref_divergence,
                      ref_generator_images, ref_hamiltonian_inverse,
                      ref_ihara_derivation, ref_krv1, ref_meta_abelian,
                      ref_potential, ref_tder_apply, x_series)

SAMPLES = [(seed, w) for seed in range(6) for w in range(1, 7)]


def random_series(rng, max_weight, n_terms=8):
    """Seeded words of every length 0..max_weight (so linear terms too) with
    Fraction coefficients."""
    terms = {}
    for _ in range(n_terms):
        w = bytes(rng.randint(0, 1) for _ in range(rng.randint(0, max_weight)))
        terms[w] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    terms[bytes((rng.randint(0, 1),))] = Fraction(rng.randint(1, 4), rng.randint(1, 3))
    return Series(X, max_weight, terms)


def _same(got, want, what):
    assert got == want, what
    assert got.max_weight == want.max_weight, what


def _pair(rng, w):
    return TangentialDerivation.of(random_series(rng, w), random_series(rng, rng.randint(1, w)))


def _psi(rng, w):
    """A Lie series with a linear term, or any series of the weight."""
    if rng.random() < 0.5:
        return random_lie(w, rng, max_weight=w) + x_series({"0": 2, "1": -1}, w)
    return random_series(rng, w)


def test_pair_operators_match_products():
    for seed, w in SAMPLES:
        rng = random.Random(1000 * seed + w)
        u = _pair(rng, w)
        at = (seed, w)
        for got, want in zip(u.generator_images(), ref_generator_images(u)):
            _same(got, want, ("generator_images", at))
        _same(divergence(u), ref_divergence(u), ("divergence", at))
        _same(hamiltonian_inverse(u), ref_hamiltonian_inverse(u),
              ("hamiltonian_inverse", at))
        f = random_series(rng, rng.randint(0, w + 1))
        _same(tder_apply(u, f), ref_tder_apply(u, f), ("tder_apply", at))


def test_series_operators_match_products():
    for seed, w in SAMPLES:
        rng = random.Random(1000 * seed + w + 500)
        psi = _psi(rng, w)
        at = (seed, w)
        _same(potential(tangential_pair_of(psi)), ref_potential(psi), ("potential", at))
        _same(_krv1_linear(psi), ref_krv1(psi), ("_krv1_linear", at))
        assert meta_abelian(psi) == ref_meta_abelian(psi), ("meta_abelian", at)
        # f lighter and heavier than psi, so the truncation at the smaller
        # max weight bites on both sides
        for mw in (w - 1, w + 2):
            f = random_series(rng, max(mw, 1))
            _same(ihara_derivation(psi, f), ref_ihara_derivation(psi, f),
                  ("ihara_derivation", at, mw))
