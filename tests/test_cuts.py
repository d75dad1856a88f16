"""A solved space used as a chart: each theorem's space is its base space
(dmr0 or rc) cut by the added condition.  The joint Lyndon solves below are
the full constraint lists, base conditions included, that describe each cut
space directly; they are the independent route, and each cut must equal its
joint solve byte for byte.

Weight 2 is included because there two added conditions bite: dmr0 and rc
are both spanned by [x0, x1], which krv1 and the commutator coefficient
remove.  At w >= 3 every added condition leaves its base space unchanged,
which is what theorems A and E assert, so there the comparison checks the
cut itself: the chart, its integer scaling and the columns each element
feeds."""

import json
import random
from fractions import Fraction

import pytest

import ncds.harness as harness
from ncds.coaction import (_c4_in_eta, _rc_residual_linear, c4_functionals,
                           c4_residual, change_of_variable, rc_space, solve_in_eta)
from ncds.dshuffle import _dmr_residual_linear
from ncds.kv import _krv1_linear, krv1skew_space
from ncds.lie import SolutionSpace, lyndon_basis, skew_constraint, solve_space
from ncds.series import Series, letter_swap, substitute

from conftest import AT_MINUS_SUM_X0, X, commutator, words_space

WEIGHTS = range(2, 9)


def _linear(s):
    return {"x0": s.coeff(b"\x00"), "x1": s.coeff(b"\x01")}


def _shifted(w):
    return harness.shifted_pair_functionals(w)


JOINT = {
    "dmr0skew": lambda w: [skew_constraint, _linear, _dmr_residual_linear],
    "rc0shifted": lambda w: [skew_constraint, _linear, _rc_residual_linear,
                             _shifted(w)],
    "dmr0skewkrv1": lambda w: [skew_constraint, _linear, _dmr_residual_linear,
                               _krv1_linear],
    "rc0krv1": lambda w: [skew_constraint, _linear, _rc_residual_linear,
                          _krv1_linear],
}


def _bytes(space):
    return json.dumps(space.to_json(), sort_keys=True)


@pytest.fixture(scope="module")
def theorem_cuts():
    """(space label, weight) -> every space that theorems A and E solve on a
    solved-space chart at weights 2..8."""
    cuts = {}

    def record(weight, constraints, space="anon", chart="lyndon"):
        out = solve_space(weight, constraints, space, chart)
        if isinstance(chart, SolutionSpace):
            cuts[space, weight] = out
        return out
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "solve_space", record)
        harness.verify_theorem_A(8, weights=WEIGHTS)
        harness.verify_theorem_E(8, weights=WEIGHTS)
    return cuts


@pytest.mark.parametrize("w", WEIGHTS)
@pytest.mark.parametrize("name", sorted(JOINT))
def test_theorem_cut_equals_joint_solve(theorem_cuts, name, w):
    joint = solve_space(w, JOINT[name](w), space=name)
    assert _bytes(theorem_cuts[name, w]) == _bytes(joint)


@pytest.mark.parametrize("w", WEIGHTS)
@pytest.mark.parametrize("chart", ["lyndon", "words"])
def test_rc0_cut_equals_joint_solve(chart, w):
    joint = solve_space(w, [skew_constraint, _linear, _rc_residual_linear,
                            commutator], space="rc0")
    if chart == "lyndon":
        cut = rc_space(w, 0)
    else:
        rc = words_space(w, [skew_constraint, _rc_residual_linear], space="rc")
        cut = solve_space(w, [commutator], space="rc0", chart=rc)
    assert _bytes(cut) == _bytes(joint)


def test_cuts_bite_at_weight_2(theorem_cuts):
    assert rc_space(2).dimension == 1 and rc_space(2, 0).dimension == 0
    assert theorem_cuts["dmr0skew", 2].dimension == 1
    assert theorem_cuts["dmr0skewkrv1", 2].dimension == 0
    assert theorem_cuts["rc0krv1", 2].dimension == 0


@pytest.mark.parametrize("w", [4, 5, 7])
def test_fraction_chart(w):
    # a chart spanning the whole Lie space of weight w through Fraction
    # combinations of the Lyndon basis: cutting it by the rc conditions gives
    # rc itself
    lyndon = lyndon_basis(w).series()
    basis = [lyndon[0].scale(Fraction(3, 7))]
    for j in range(1, len(lyndon)):
        basis.append(lyndon[j].scale(Fraction(-5, j + 2))
                     + lyndon[j - 1].scale(Fraction(1, 2 * j + 1)))
    chart = SolutionSpace("fractions", w, basis)
    cut = solve_space(w, [skew_constraint, _rc_residual_linear], space="rc",
                      chart=chart)
    assert _bytes(cut) == _bytes(rc_space(w))


def test_empty_chart():
    def never(_s):
        raise AssertionError("a constraint ran on an empty chart")
    cut = solve_space(5, [never], space="cut", chart=SolutionSpace("none", 5, []))
    assert cut.to_json() == {"space": "cut", "weight": 5, "dimension": 0,
                             "basis": []}


# -- the eta route ----------------------------------------------------------
#
# Theorem C's change-of-variable description and krv1skew are solved on
# eta = psi(-x0-x1, x1), mapped back and cut by skew symmetry; the joint
# Lyndon solves of the psi-form constraints are the reference.

ETA_ROUTE = {
    "c4": (lambda w: solve_in_eta(w, [_c4_in_eta], "c4"), c4_residual),
    "krv1skew": (krv1skew_space, _krv1_linear),
}


@pytest.mark.parametrize("w", range(2, 10))
@pytest.mark.parametrize("name", sorted(ETA_ROUTE))
def test_eta_route_equals_joint_solve(name, w):
    route, psi_form = ETA_ROUTE[name]
    joint = solve_space(w, [skew_constraint, psi_form], space=name)
    assert _bytes(route(w)) == _bytes(joint)


def test_theorem_C_solves_iv_in_eta(monkeypatch):
    # iv is certified on the eta chart, and where that misses, the family it
    # listed is solved in eta
    calls = []

    def record(weight, constraints, space):
        calls.append((weight, constraints, space))
        return solve_in_eta(weight, constraints, space)
    monkeypatch.setattr(harness, "solve_in_eta", record)
    harness.verify_theorem_C(4)
    assert calls == []
    monkeypatch.setattr(harness, "spans_kernel", lambda w, families, elements: False)
    harness.verify_theorem_C(4)
    assert calls == [(w, [list(c4_functionals(w))], "c4") for w in (2, 3, 4)]


def _fraction_series(rng, max_weight, n_terms):
    terms = {}
    for _ in range(n_terms):
        w = bytes(rng.randint(0, 1) for _ in range(rng.randint(0, max_weight)))
        terms[w] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return Series(X, max_weight, terms)


def test_change_of_variable_is_an_involution():
    rng = random.Random(22)
    for mw in (0, 1, 4, 7):
        for n_terms in (1, 3, 30):
            f = _fraction_series(rng, mw, n_terms)
            back = change_of_variable(change_of_variable(f))
            assert back.terms == f.terms and back.max_weight == mw


def test_swapped_eta_is_psi_at_minus_sum_x0():
    # psi(-x0-x1, x0) = eta(x1, x0) for eta = psi(-x0-x1, x1)
    rng = random.Random(23)
    for mw in (0, 1, 4, 7):
        for n_terms in (1, 3, 30):
            f = _fraction_series(rng, mw, n_terms)
            got = letter_swap(change_of_variable(f))
            want = substitute(f, AT_MINUS_SUM_X0)
            assert got.terms == want.terms and got.max_weight == mw
