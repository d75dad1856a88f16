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
from fractions import Fraction

import pytest

import ncds.harness as harness
from ncds.coaction import _rc_residual_linear, rc_space
from ncds.dshuffle import _dmr_residual_linear
from ncds.kv import _krv1_linear
from ncds.lie import SolutionSpace, lyndon_basis, skew_constraint, solve_space

WEIGHTS = range(2, 9)


def _linear(s):
    return {"x0": s.coeff(b"\x00"), "x1": s.coeff(b"\x01")}


def _commutator(s):
    return {"lam": s.coeff(b"\x00\x01")}


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
                            _commutator], space="rc0")
    assert _bytes(rc_space(w, 0, chart=chart)) == _bytes(joint)


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
