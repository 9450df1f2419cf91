import dataclasses
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from qutrit_ks import linalg
from qutrit_ks.model import (CHI4, PM1, RAYS, ZO, Inequality, build_model,
                             dump_model, exact_operator)

from helpers import random_density_matrix

PROJECTORS = {i: linalg.projector_from_ray(RAYS[i]) for i in RAYS}
OBSERVABLES = {i: linalg.IDENTITY - 2 * p for i, p in PROJECTORS.items()}


@pytest.fixture(scope="module")
def model():
    return build_model()


def test_edge_count(model):
    assert len(model.edges) == 24


def test_specific_edges(model):
    assert (4, 10) in model.edges
    assert (10, 13) not in model.edges


def test_triangles_are_exactly_the_four(model):
    assert set(model.triangles) == {(1, 2, 3), (1, 4, 7), (2, 5, 8), (3, 6, 9)}


def test_coefficients(model):
    assert all(model.mu_i[i] == 1 for i in range(1, 10))
    assert all(model.mu_i[i] == 2 for i in range(10, 14))
    inside = {(1, 4), (1, 7), (4, 7), (2, 5), (2, 8), (5, 8),
              (3, 6), (3, 9), (6, 9)}
    for e, mu in model.mu_ij.items():
        assert mu == (1 if e in inside else 2)
    assert model.mu_ijk[(1, 2, 3)] == 0
    assert model.mu_ijk[(1, 4, 7)] == model.mu_ijk[(2, 5, 8)] \
        == model.mu_ijk[(3, 6, 9)] == 3


def test_observables_form():
    for i in RAYS:
        a = OBSERVABLES[i]
        assert np.max(np.abs(a - (linalg.IDENTITY - 2 * PROJECTORS[i]))) < 1e-12
        assert linalg.frobenius_distance(a @ a, linalg.IDENTITY) < 1e-10


def test_edge_compatibility(model):
    for i, j in model.edges:
        vi, vj = PROJECTORS[i], PROJECTORS[j]
        assert np.max(np.abs(vi @ vj)) < 1e-12
        ai, aj = OBSERVABLES[i], OBSERVABLES[j]
        assert np.max(np.abs(ai @ aj - aj @ ai)) < 1e-12


def test_triangle_completeness(model):
    for i, j, k in model.triangles:
        s = PROJECTORS[i] + PROJECTORS[j] + PROJECTORS[k]
        assert linalg.frobenius_distance(s, linalg.IDENTITY) < 1e-12
        prod = OBSERVABLES[i] @ OBSERVABLES[j] @ OBSERVABLES[k]
        assert linalg.frobenius_distance(prod, -linalg.IDENTITY) < 1e-10


def test_projector_sums():
    s9 = sum(PROJECTORS[i] for i in range(1, 10))
    assert linalg.frobenius_distance(s9, 3 * linalg.IDENTITY) < 1e-12
    s4 = sum(PROJECTORS[i] for i in range(10, 14))
    assert linalg.frobenius_distance(s4, (4 / 3) * linalg.IDENTITY) < 1e-12


def test_chi13_operator(model):
    op = exact_operator(model.chi13).astype(float)
    assert linalg.frobenius_distance(op, (83 / 3) * linalg.IDENTITY) < 1e-9
    assert op[0, 0].real == pytest.approx(27.666666666, abs=1e-9)
    assert abs(op[0, 1]) < 1e-9


def test_chi4_operator():
    op = exact_operator(CHI4).astype(float)
    assert linalg.frobenius_distance(op, (4 / 3) * linalg.IDENTITY) < 1e-12
    assert np.trace(op).real == pytest.approx(4.0, abs=1e-12)
    assert abs(op[0, 1]) < 1e-12


def test_state_independence_1000_states(model):
    rng = np.random.default_rng(2024)
    op = exact_operator(model.chi13).astype(float)
    for _ in range(1000):
        rho = random_density_matrix(rng)
        assert np.trace(rho @ op).real == pytest.approx(83 / 3, abs=1e-9)


def test_dump_model(model):
    text = dump_model(model)
    assert "classical bound chi13 = 25" in text
    assert "( 4,10)" in text or "(4,10)" in text.replace(" ", "")
    assert text.count("mu_ijk") >= 4


def test_exact_operators_are_multiples_of_identity(model):
    eye = np.identity(3, dtype=int)
    for ineq, value in ((model.chi13, Fraction(83, 3)), (CHI4, Fraction(4, 3))):
        op = exact_operator(ineq)
        assert all(isinstance(x, Fraction) for x in op.flat)
        assert all(x == y for x, y in zip(op.flat, (value * eye).flat))


def test_chi13_spec_follows_modified_weights(model):
    changed = dataclasses.replace(model, mu_ij={**model.mu_ij, (1, 2): 5})
    assert changed.chi13.terms[(1, 2)] == -5
    assert model.chi13.terms[(1, 2)] == -2
    assert model.chi13 is model.chi13  # built once per model


def fraction_operator(ineq):
    """Reference: every entry of every partial product a `Fraction`."""
    eye = np.identity(3, dtype=int).astype(object)
    factors = {}
    for r in {r for rays in ineq.terms for r in rays}:
        v = np.array(RAYS[r], dtype=object)
        p = np.outer(v, v) * Fraction(1, v @ v)
        factors[r] = eye - 2 * p if ineq.alphabet == PM1 else p
    out = 0 * eye
    for rays, c in ineq.terms.items():
        out += c * reduce(np.matmul, [factors[r] for r in rays])
    return out


HUGE = Inequality("huge", PM1, {(1,): 10**30, (10,): -(10**30), (1, 4): 10**30,
                                (2, 5, 8): -(10**30), (3, 6, 9): 7},
                  classical_bound=0, quantum_value=Fraction(0))


@pytest.mark.parametrize("case", ["chi13", "chi4", "changed_mu_ij",
                                  "weighted_123", "huge_pm1", "huge_01"])
def test_integer_operator_matches_fraction_reference(model, case):
    ineq = {
        "chi13": model.chi13,
        "chi4": CHI4,
        "changed_mu_ij": dataclasses.replace(
            model, mu_ij={**model.mu_ij, (1, 2): 5}).chi13,
        "weighted_123": dataclasses.replace(
            model, mu_ijk={**model.mu_ijk, (1, 2, 3): 4}).chi13,
        "huge_pm1": HUGE,  # coefficients beyond int64
        "huge_01": dataclasses.replace(HUGE, alphabet=ZO),
    }[case]
    op = exact_operator(ineq)
    assert op.shape == (3, 3)
    assert all(isinstance(x, Fraction) for x in op.flat)
    assert list(op.flat) == list(fraction_operator(ineq).flat)


def test_operator_of_empty_inequality_is_zero():
    op = exact_operator(Inequality("empty", ZO, {}, classical_bound=0,
                                   quantum_value=Fraction(0)))
    assert op.shape == (3, 3)
    assert all(isinstance(x, Fraction) and x == 0 for x in op.flat)
