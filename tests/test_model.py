import dataclasses
import os
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from itertools import combinations
from types import MappingProxyType

import numpy as np
import pytest

from qutrit_ks import analysis, hv, linalg, model as model_module
from qutrit_ks.model import (CHI4, RAYS, Inequality, build_model, dump_model,
                             operator_numerator, triple_free)

from helpers import HUGE, HUGE_TERMS, exact_operator, random_density_matrix

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
    """A modified model agrees with itself: chi13, the noncontextual maximum
    and the dump read the weights it was built with, also after the caller
    writes to the dict it passed."""
    weights = {**model.mu_ij, (1, 2): 5}
    changed = dataclasses.replace(model, mu_ij=weights)
    assert changed.chi13.terms[(1, 2)] == 4 * -5  # -mu_ij A_1 A_2 has 4 (-mu_ij) V_1 V_2
    weights[(1, 2)] = 2
    assert changed.mu_ij[(1, 2)] == 5 and changed.chi13.terms[(1, 2)] == 4 * -5
    assert hv.max_chi13_noncontextual(changed).maximum == 28
    assert "( 1, 2)   mu_ij = 5" in dump_model(changed).splitlines()
    assert model.chi13.terms[(1, 2)] == 4 * -2
    assert model.chi13 is model.chi13  # built once per model


def fraction_operator(ineq):
    """Reference: every entry of every partial product a `Fraction`."""
    eye = np.identity(3, dtype=int).astype(object)
    factors = {}
    for r in {r for rays in ineq.terms for r in rays}:
        v = np.array(RAYS[r], dtype=object)
        factors[r] = np.outer(v, v) * Fraction(1, v @ v)
    out = 0 * eye
    for rays, c in ineq.terms.items():
        out += c * reduce(np.matmul, [factors[r] for r in rays], eye)
    return out


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
        "huge_01": dataclasses.replace(HUGE, terms=HUGE_TERMS),
    }[case]
    op = exact_operator(ineq)
    assert op.shape == (3, 3)
    assert all(isinstance(x, Fraction) for x in op.flat)
    assert list(op.flat) == list(fraction_operator(ineq).flat)


@pytest.mark.parametrize("spec", ["one_ray", "three_rays", "chi13"])
@pytest.mark.parametrize("above", [0, 1])
def test_int64_switch_point_is_exact(model, spec, above):
    """At the largest sum |c| whose bound sum |c| 3^(K-1) D^K stays below
    2^63, where the operator is summed in int64, and one above it, where
    Python ints take over, the operator is the Fraction reference's."""
    terms, grown, k, d = {
        "one_ray": ({(1,): 1}, (1,), 1, 1),  # entry [0, 0] is sum |c|: the bound is tight
        # rays 5 and 13, weighted 0, make D = 6; entry [0, 0] is 6 sum |c|: tight too
        "three_rays": ({(1,): 1, (5,): 0, (13,): 0}, (1,), 1, 6),
        "chi13": (dict(model.chi13.terms), (1,), 3, 6),  # lcm(1, 2, 3) = 6
    }[spec]
    limit = (2 ** 63 - 1) // (3 ** (k - 1) * d ** k)
    terms[grown] += limit + above - sum(map(abs, terms.values()))
    ineq = Inequality("switch", terms, classical_bound=0, quantum_value=Fraction(0))
    assert sum(map(abs, ineq.terms.values())) == limit + above
    op = exact_operator(ineq)
    assert all(isinstance(x, Fraction) for x in op.flat)
    assert list(op.flat) == list(fraction_operator(ineq).flat)


def test_operator_of_empty_inequality_is_zero():
    op = exact_operator(Inequality("empty", {}, classical_bound=0, quantum_value=Fraction(0)))
    assert op.shape == (3, 3)
    assert all(isinstance(x, Fraction) and x == 0 for x in op.flat)


def all_triples_triangles(edges):
    """Reference: every triple of rays whose three pairs are all edges."""
    return frozenset(t for t in combinations(RAYS, 3)
                     if all(e in edges for e in combinations(t, 2)))


def test_triangles_match_the_all_triples_search(model):
    assert model.triangles == all_triples_triangles(model.edges)
    assert all(type(r) is int for e in model.edges for r in e)
    assert all(type(r) is int for t in model.triangles for r in t)
    assert model == build_model()
    rng = np.random.default_rng(13)
    pairs = list(combinations(RAYS, 2))
    for density in (0.2, 0.5, 0.8):
        for _ in range(20):
            edges = frozenset(p for p, keep in zip(pairs, rng.random(len(pairs)) < density)
                              if keep)
            assert model_module._triangles(edges) == all_triples_triangles(edges)


def test_default_model_is_one_shared_record_with_read_only_weights():
    """Every caller reads one default model, and no caller can write its
    weights in place: a modified model is a `dataclasses.replace`."""
    a, b = build_model(), build_model()
    assert a is b
    for weights, key in ((a.mu_i, 1), (a.mu_ij, (1, 2)), (a.mu_ijk, (1, 2, 3))):
        assert isinstance(weights, MappingProxyType)
        with pytest.raises(TypeError):
            weights[key] = 7
    assert (b.mu_i[1], b.mu_ij[(1, 2)], b.mu_ijk[(1, 2, 3)]) == (1, 2, 0)


def test_import_builds_no_graph_and_no_settings():
    """The per-process model and settings are built on first use, so a
    command that needs neither pays nothing for them at start-up."""
    code = ("import qutrit_ks.cli\nfrom qutrit_ks import model, pulses\n"
            "print(model.build_model.cache_info().currsize,"
            " pulses._settings.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.split() == ["0", "0"]


def test_build_model_does_not_search_all_triples(monkeypatch):
    sizes = []

    def recording(items, r):
        sizes.append(r)
        return combinations(items, r)

    monkeypatch.setattr(model_module, "combinations", recording)
    build_model.cache_clear()  # the model is built once per process
    built = build_model()
    assert sizes and 3 not in sizes
    assert built.triangles == all_triples_triangles(built.edges)


def test_triple_free_keeps_a_spec_without_triple_terms():
    """Only degree-3 terms are dropped: a spec without any comes back with
    the same terms, bound and quantum value, under a name that says so."""
    pairs = Inequality("pairs", {(): 2, (1,): -1, (1, 4): 3}, 5, Fraction(1))
    free = triple_free(pairs)
    assert (free.name, dict(free.terms), free.classical_bound, free.quantum_value) == \
        ("pairs without triple terms", dict(pairs.terms), 5, Fraction(1))


def test_equal_specs_hash_equal():
    """Two specs with the same terms in another order are equal, so they
    hash equal: a set keeps one, and the enumeration and estimator caches
    each miss once for the two. `rules` is part of the content."""
    a = Inequality("p", {(1,): 1, (2,): 2}, 1, Fraction(1))
    b = Inequality("p", {(2,): 2, (1,): 1}, 1, Fraction(1))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    ruled = dataclasses.replace(a, rules=True)
    assert ruled != a and hash(ruled) != hash(a)
    layout = (((1,), 10), ((2,), 10))
    before = hv._coefficients.cache_info().misses, analysis._parts.cache_info().misses
    for ineq in (a, b):
        hv._coefficients(ineq)
        analysis._parts(ineq, layout)
    after = hv._coefficients.cache_info().misses, analysis._parts.cache_info().misses
    assert (after[0] - before[0], after[1] - before[1]) == (1, 1)


@pytest.mark.parametrize("weights", ["default", "changed_mu_ij", "weighted_123"])
def test_chi13_terms_are_the_pm1_witness_at_every_assignment(model, weights):
    """`pm1` checked apart from itself: at each of the 8,192 assignments V,
    chi13's 0/1 terms equal sum mu_i A_i - sum mu_ij A_i A_j - sum mu_ijk
    A_i A_j A_k, computed from the weights at A = 1 - 2V."""
    if weights == "changed_mu_ij":
        model = dataclasses.replace(model, mu_ij={**model.mu_ij, (1, 2): 5})
    elif weights == "weighted_123":
        model = dataclasses.replace(model, mu_ijk={**model.mu_ijk, (1, 2, 3): 4})
    v = (np.arange(2 ** 13)[:, None] >> np.arange(13) & 1).astype(np.int64)
    a = 1 - 2 * v  # column r - 1 holds ray r

    def product(x, rays):
        return np.prod(x[:, [r - 1 for r in rays]], axis=1)

    witness = (sum(mu * a[:, i - 1] for i, mu in model.mu_i.items())
               - sum(mu * product(a, e) for e, mu in model.mu_ij.items())
               - sum(mu * product(a, t) for t, mu in model.mu_ijk.items()))
    terms = sum(c * product(v, rays) for rays, c in model.chi13.terms.items())
    assert np.array_equal(terms, witness)
    assert max(map(len, model.chi13.terms)) == 3


def test_rules_are_the_sum_and_product_rules_of_the_graph(model):
    """`KSModel.rules`: V_i + V_j + V_k - 1 on each sorted triangle, then
    V_i V_j on each sorted edge, each with bound and quantum value 0, which
    the exact operator confirms; built once per model. A model without an
    edge carries its own rules, one fewer."""
    rules = model.rules
    triangles = [(1, 2, 3), (1, 4, 7), (2, 5, 8), (3, 6, 9)]
    assert len(rules) == 28 and model.rules is rules
    assert [r.name for r in rules] == ([f"sum({i}, {j}, {k})" for i, j, k in triangles]
                                       + [f"product({i}, {j})" for i, j in sorted(model.edges)])
    assert [dict(r.terms) for r in rules[:4]] == [
        {(): -1, (i,): 1, (j,): 1, (k,): 1} for i, j, k in triangles]
    assert [dict(r.terms) for r in rules[4:]] == [{e: 1} for e in sorted(model.edges)]
    for rule in rules:
        assert (rule.classical_bound, rule.quantum_value, rule.rules) == (0, 0, False)
        assert not operator_numerator(rule)[0].any()
    fewer = dataclasses.replace(model, edges=model.edges - {(1, 2)})
    assert len(fewer.rules) == 27
    assert "product(1, 2)" not in {r.name for r in fewer.rules}
