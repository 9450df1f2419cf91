import dataclasses
from itertools import combinations, product

import pytest

from qutrit_ks import hv
from qutrit_ks.model import RAYS, build_model


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
    f = hv.Assignment((1,) * 13, hv.PM1)
    # sum(mu_i) = 17, sum(mu_ij) = 39, sum(mu_ijk) = 9 -> 17 - 39 - 9
    assert hv.evaluate_assignment(f, model) == -31


def test_chi4_bound_is_1(chi4_report):
    assert chi4_report.maximum == 1


def test_chi4_admissible_count_regression(chi4_report):
    # frozen from the enumeration: 12 colorings reach 1, 12 reach 0
    assert chi4_report.admissible_count == 24
    assert chi4_report.histogram == {0: 12, 1: 12}


def test_product_rule_rejects_shared_edge(model):
    g = [0] * 13
    g[0] = g[1] = 1  # edge (1, 2)
    assert not hv._admissible(tuple(g), model)


def test_chi4_functional_trivia(model):
    assert hv.evaluate_assignment(hv.Assignment((0,) * 13, hv.ZO), model) == 0
    g = [0] * 13
    g[2] = 1
    assert hv.evaluate_assignment(hv.Assignment(tuple(g), hv.ZO), model) == 0


def test_alphabet_validation():
    with pytest.raises(ValueError):
        hv.Assignment((0,) * 13, hv.PM1)
    with pytest.raises(ValueError):
        hv.Assignment((2,) * 13, hv.ZO)
    with pytest.raises(ValueError):
        hv.Assignment((1,) * 12, hv.PM1)


def test_quantum_violation_gap(chi13_report):
    assert 83 / 3 - chi13_report.maximum == pytest.approx(8 / 3, abs=1e-9)


def test_admissible_chi4_assignments_respect_chi13_bound(model):
    """Every admissible 0/1 coloring, mapped through A = 1 - 2V, stays within
    the +-1 bound."""
    count = 0
    for g in product((0, 1), repeat=13):
        if not hv._admissible(g, model):
            continue
        count += 1
        f = tuple(1 - 2 * v for v in g)
        assert hv.evaluate_assignment(hv.Assignment(f, hv.PM1), model) <= 25
    assert count == 24


def test_determinism(model, chi13_report):
    again = hv.max_chi13_noncontextual(model)
    assert again == chi13_report


def test_dropping_triple_products_keeps_bound(model):
    """Dropping the triple products V_iV_jV_k keeps the maximum <= 25.

    In 0/1 variables the three-observable term expands to
    1 - 2(g_i+g_j+g_k) + 4(g_ig_j+...) - 8 g_ig_jg_k, so removing the
    g_ig_jg_k piece only lowers the value of every assignment and the
    classical bound survives.
    """
    best = None
    for g in product((0, 1), repeat=13):
        f = tuple(1 - 2 * v for v in g)
        val = hv.evaluate_assignment(hv.Assignment(f, hv.PM1), model)
        val -= 8 * sum(mu * g[i - 1] * g[j - 1] * g[k - 1]
                       for (i, j, k), mu in model.mu_ijk.items())
        best = val if best is None else max(best, val)
    assert best <= 25


def test_report_text(chi13_report):
    text = report_to_text("chi13", chi13_report)
    assert "maximum          = 25" in text
    assert "[histogram]" in text


def _scalar_histogram(model, alphabet):
    """Histogram of the scalar reference over all 8192 assignments."""
    hist = {}
    for g in product((0, 1), repeat=13):
        if alphabet == hv.ZO and not hv._admissible(g, model):
            continue
        values = g if alphabet == hv.ZO else tuple(1 - 2 * v for v in g)
        val = hv.evaluate_assignment(hv.Assignment(values, alphabet), model)
        hist[val] = hist.get(val, 0) + 1
    return dict(sorted(hist.items()))


def test_vectorized_chi13_matches_scalar_reference(model, chi13_report):
    assert chi13_report.histogram == _scalar_histogram(model, hv.PM1)


def test_vectorized_chi4_matches_scalar_reference(model, chi4_report):
    assert chi4_report.histogram == _scalar_histogram(model, hv.ZO)


def test_uncolorable_rules_report_no_maximum(model):
    # every pair exclusive, yet two disjoint triangles each need one ray at 1
    broken = dataclasses.replace(model, edges=frozenset(combinations(RAYS, 2)),
                                 triangles=frozenset({(1, 2, 3), (4, 5, 6)}))
    report = hv.max_chi4_constrained(broken)
    assert report.maximum is None
    assert "KS-uncolorable" in report_to_text("chi4", report)
