import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import prod

import numpy as np
import pytest

from qutrit_ks import analysis, hv, pulses, simulate
from qutrit_ks.model import CHI4, RAYS, Inequality, KSModel, build_model, triple_free

from helpers import HUGE


@dataclass(frozen=True)
class Assignment:
    """One hidden-variable assignment: a 0/1 value V_r per ray."""

    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != 13:
            raise ValueError("assignment needs 13 values")
        if not set(self.values) <= {0, 1}:
            raise ValueError("values must be 0 or 1")


def spec_value(ineq: Inequality, values: tuple[int, ...]) -> int:
    """Scalar reference for `hv.enumerate_bound`: sum_m c_m prod_{r in m} V_r
    at one assignment, in Python ints."""
    return sum(c * prod(values[r - 1] for r in rays) for rays, c in ineq.terms.items())


def admissible(g: tuple[int, ...], model: KSModel) -> bool:
    """Scalar reference for the 0/1 rules: the product rule on every edge and
    the sum rule on every triangle."""
    for i, j in model.edges:
        if g[i - 1] * g[j - 1] != 0:
            return False
    for i, j, k in model.triangles:
        if g[i - 1] + g[j - 1] + g[k - 1] != 1:
            return False
    return True


def report_to_text(name: str, report: hv.BoundReport) -> str:
    lines = [f"# enumeration report: {name}"]
    if report.maximum is None:
        lines.append("KS-uncolorable: no assignment satisfies the rules")
        return "\n".join(lines) + "\n"
    lines.append(f"maximum          = {report.maximum}")
    lines.append(f"argmax count     = {report.argmax_count}")
    lines.append(f"admissible count = {report.admissible_count}")
    lines.append("[histogram]")
    for val, count in report.histogram.items():
        lines.append(f"{val:6d} : {count}")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def model():
    return build_model()


@pytest.fixture(scope="module")
def chi13_report(model):
    return hv.max_chi13_noncontextual(model)


@pytest.fixture(scope="module")
def chi4_report(model):
    return hv.max_chi4_constrained(model)


def test_chi13_bound_is_25(chi13_report):
    assert chi13_report.maximum == 25


def test_chi13_enumeration_size(chi13_report):
    assert sum(chi13_report.histogram.values()) == 2 ** 13


def test_chi13_argmax_count_regression(chi13_report):
    # frozen from the enumeration itself
    assert chi13_report.argmax_count == 140


def test_all_plus_one_value(model):
    f = Assignment((0,) * 13)  # every A = 1 - 2V is +1
    # sum(mu_i) = 17, sum(mu_ij) = 39, sum(mu_ijk) = 9 -> 17 - 39 - 9
    assert spec_value(model.chi13, f.values) == -31


def test_chi4_bound_is_1(chi4_report):
    assert chi4_report.maximum == 1


def test_chi4_admissible_count_regression(chi4_report):
    # frozen from the enumeration: 12 colorings reach 1, 12 reach 0
    assert chi4_report.admissible_count == 24
    assert chi4_report.histogram == {0: 12, 1: 12}


def test_product_rule_rejects_shared_edge(model):
    g = [0] * 13
    g[0] = g[1] = 1  # edge (1, 2)
    assert not admissible(tuple(g), model)


def test_chi4_functional_trivia(model):
    assert spec_value(CHI4, Assignment((0,) * 13).values) == 0
    g = [0] * 13
    g[2] = 1
    assert spec_value(CHI4, Assignment(tuple(g)).values) == 0


def test_alphabet_validation():
    """An assignment takes 13 values, each 0 or 1; a +-1 value is refused."""
    with pytest.raises(ValueError):
        Assignment((-1,) * 13)
    with pytest.raises(ValueError):
        Assignment((2,) * 13)
    with pytest.raises(ValueError):
        Assignment((1,) * 12)


def test_quantum_violation_gap(chi13_report):
    assert 83 / 3 - chi13_report.maximum == pytest.approx(8 / 3, abs=1e-9)


def test_admissible_chi4_assignments_respect_chi13_bound(model):
    """Every admissible 0/1 coloring stays within chi13's bound."""
    count = 0
    for g in product((0, 1), repeat=13):
        if not admissible(g, model):
            continue
        count += 1
        assert spec_value(model.chi13, Assignment(g).values) <= 25
    assert count == 24


def test_determinism(model, chi13_report):
    again = hv.max_chi13_noncontextual(model)
    assert again == chi13_report


@pytest.mark.parametrize("weights", ["default", "weighted_123"])
def test_triple_free_record_is_the_estimators_expansion(model, weights):
    """The estimator reports the triple-free record: chi13's map is
    `triple_free(chi13)`'s, hex for hex at float rates and exactly at
    `Fraction` rates, for the default weights and a weighted (1, 2, 3)
    triangle. `triple_free` drops the degree-3 terms and nothing else, and
    keeps `rules`."""
    if weights == "weighted_123":
        model = dataclasses.replace(model, mu_ijk={**model.mu_ijk, (1, 2, 3): 4})
    free = triple_free(model.chi13)
    assert dict(free.terms) == {m: c for m, c in model.chi13.terms.items() if len(m) < 3}
    assert any(len(m) == 3 for m in model.chi13.terms)
    assert (free.rules, triple_free(CHI4).rules) == (False, True)
    layout = tuple((sub.chain, sub.shots)
                   for sub in simulate.build_plan(model, pulses.settings_table()))
    paper = simulate.readout_rates(simulate.NoiseModel.paper())
    for rates in ((1.0, 0.0), paper, (0.8, 0.3)):
        full, dropped = (analysis.affine_map(i, layout, *rates) for i in (model.chi13, free))
        assert [full.w0.hex(), *map(float.hex, full.w.tolist())] == \
            [dropped.w0.hex(), *map(float.hex, dropped.w.tolist())]
    exact = tuple(map(Fraction, paper))
    full, dropped = (analysis.affine_map(i, layout, *exact) for i in (model.chi13, free))
    assert [full.w0, *full.w] == [dropped.w0, *dropped.w]


def test_triple_free_bound_matches_scalar_reference(model):
    """Dropping the triple terms keeps chi13's bound of 25, now reached by
    92 assignments; the record stays out of the model's inequalities."""
    free = triple_free(model.chi13)
    report = hv.enumerate_bound(free, model)
    assert report.histogram == _scalar_histogram(model, free)
    assert (report.maximum, report.argmax_count) == (25, 92)
    assert (free.name, free.classical_bound) == ("chi13 without triple terms", 25)
    assert free not in model.inequalities


def test_report_text(chi13_report):
    text = report_to_text("chi13", chi13_report)
    assert "maximum          = 25" in text
    assert "[histogram]" in text


def _scalar_histogram(model, ineq):
    """Histogram of the scalar reference over all 8192 assignments."""
    hist = {}
    for g in product((0, 1), repeat=13):
        if ineq.rules and not admissible(g, model):
            continue
        val = spec_value(ineq, g)
        hist[val] = hist.get(val, 0) + 1
    return dict(sorted(hist.items()))


def test_vectorized_chi13_matches_scalar_reference(model, chi13_report):
    assert chi13_report.histogram == _scalar_histogram(model, model.chi13)


def test_vectorized_chi4_matches_scalar_reference(model, chi4_report):
    assert chi4_report.histogram == _scalar_histogram(model, CHI4)


def _uncolorable(model):
    """Every pair exclusive, yet two disjoint triangles each need one ray at 1."""
    return dataclasses.replace(model, edges=frozenset(combinations(RAYS, 2)),
                               triangles=frozenset({(1, 2, 3), (4, 5, 6)}))


@pytest.mark.parametrize("case", ["changed_mu_ij", "weighted_123", "constant_and_zero",
                                  "01_pairs_and_triples", "uncolorable"])
def test_grouped_enumeration_matches_scalar_reference(model, case):
    """Terms grouped by degree and coefficient, beyond the two default specs:
    a constant term, a zero coefficient, several groups of one degree, and
    0/1 rules that admit nothing."""
    graph, ineq = model, {
        "changed_mu_ij": dataclasses.replace(
            model, mu_ij={**model.mu_ij, (1, 2): 5}).chi13,
        "weighted_123": dataclasses.replace(
            model, mu_ijk={**model.mu_ijk, (1, 2, 3): 4}).chi13,
        "constant_and_zero": Inequality(
            "constant", {(): 5, (1,): 0, (2,): -3, (10, 13): 2, (11, 12): 2,
                         (1, 5, 9): -1, (4, 8, 12): 0}, 0, Fraction(0)),
        "01_pairs_and_triples": Inequality(
            "pairs", {(10,): 1, (1, 5): 2, (10, 13): -2, (5, 12): 3,
                      (1, 5, 9): 4, (3, 10, 13): -1}, 0, Fraction(0), rules=True),
        "uncolorable": CHI4,
    }[case]
    if case == "uncolorable":
        graph = _uncolorable(model)
    report = hv.enumerate_bound(ineq, graph)
    expected = _scalar_histogram(graph, ineq)
    assert report.histogram == expected
    assert report.admissible_count == sum(expected.values())
    if expected:
        assert (report.maximum, report.argmax_count) == max(expected.items())
    else:
        assert report.maximum is None and report.argmax_count == 0


def test_enumeration_sums_in_int64():
    """Two terms of 2^30 reach 2^31, past int32, exactly."""
    big = Inequality("big", {(1,): 2 ** 30, (2,): 2 ** 30}, 0, Fraction(0))
    report = hv.enumerate_bound(big, build_model())
    assert report.maximum == 2 ** 31
    assert report.histogram == {0: 2 ** 11, 2 ** 30: 2 ** 12, 2 ** 31: 2 ** 11}


@pytest.mark.parametrize("spec", ["one_ray", "chi13"])
@pytest.mark.parametrize("above", [0, 1, 2])
def test_float_switch_point_is_exact(model, spec, above):
    """At sum |c| = 2^53 - 1, the largest the product runs in float64 for,
    at 2^53, where int64 takes over, and at 2^53 + 1, where float64 could
    not hold the odd value of one ray, every value is the scalar reference's."""
    terms = {"one_ray": {(1,): 1}, "chi13": dict(model.chi13.terms)}[spec]
    terms[(1,)] += 2 ** 53 - 1 + above - sum(map(abs, terms.values()))
    ineq = Inequality("switch", terms, classical_bound=0, quantum_value=Fraction(0))
    assert sum(map(abs, ineq.terms.values())) == 2 ** 53 - 1 + above
    assert hv._coefficients(ineq)[0].dtype == (np.int64 if above else np.float64)
    report = hv.enumerate_bound(ineq, model)
    assert report.histogram == _scalar_histogram(model, ineq)
    assert report.maximum == max(report.histogram)


def test_enumeration_refuses_unknown_rays_and_coefficients_beyond_int64():
    with pytest.raises(ValueError, match="inequality huge"):
        hv.enumerate_bound(HUGE, build_model())
    with pytest.raises(ValueError, match="inequality ray0"):
        hv.enumerate_bound(Inequality("ray0", {(0, 1): 1}, 0, Fraction(0)),
                           build_model())


def test_enumeration_refuses_a_bad_spec_on_every_call(model):
    """A spec is checked and placed once per content, but a refused spec is
    never remembered as checked."""
    for bad in (HUGE, Inequality("ray0", {(0, 1): 1}, 0, Fraction(0))):
        for _ in range(2):
            with pytest.raises(ValueError, match=f"inequality {bad.name}"):
                hv.enumerate_bound(bad, model)


def test_coefficients_are_shared_and_read_only(model):
    """A spec's coefficient matrix and part rows are built once per content
    and are read-only, as are the half tables they index."""
    for ineq in (CHI4, model.chi13):
        arrays = hv._coefficients(ineq)
        assert hv._coefficients(dataclasses.replace(ineq)) is arrays  # keyed by content
        assert all(not a.flags.writeable for a in arrays + hv._table())


def test_uncolorable_rules_report_no_maximum(model):
    report = hv.max_chi4_constrained(_uncolorable(model))
    assert report.maximum is None
    assert "KS-uncolorable" in report_to_text("chi4", report)
