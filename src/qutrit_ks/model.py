"""The 13-ray qutrit model: rays, compatibility graph, inequality specs.

Rays are stored as signed integers and never pre-normalized; orthogonality is
decided in exact integer arithmetic, so the graph carries no floating-point
ambiguity. Triangles are found as the common neighbours of each edge's
ends in the constructed edge set rather than hard-coded.

Each inequality is one `Inequality` record read by enumeration, the exact
quantum operator, analysis and the CLI; another weighting is a data change.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, reduce
from itertools import combinations
from math import lcm
from types import MappingProxyType

import numpy as np

# Ray index -> integer direction.
RAYS: dict[int, tuple[int, int, int]] = {
    1: (1, 0, 0),
    2: (0, 1, 0),
    3: (0, 0, 1),
    4: (0, 1, -1),
    5: (1, 0, -1),
    6: (1, -1, 0),
    7: (0, 1, 1),
    8: (1, 0, 1),
    9: (1, 1, 0),
    10: (-1, 1, 1),
    11: (1, -1, 1),
    12: (1, 1, -1),
    13: (1, 1, 1),
}

WEIGHTED_TRIANGLES = frozenset({(1, 4, 7), (2, 5, 8), (3, 6, 9)})

PM1 = "pm1"  # ray values A_r = +-1, quantum observable I - 2 P_r
ZO = "01"    # ray values V_r in {0, 1}, quantum projector P_r


@dataclass(frozen=True)
class Inequality:
    """sum_m c_m prod_{r in m} x_r <= classical_bound for noncontextual x_r
    (0/1 values obey the product and sum rules); the quantum operator is
    claimed to be quantum_value * I. The terms are kept as a read-only
    copy, so the hash, computed on first use, cannot go stale."""

    name: str
    alphabet: str  # PM1 or ZO
    terms: Mapping[tuple[int, ...], int]  # sorted rays -> integer coefficient
    classical_bound: int
    quantum_value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "terms", MappingProxyType(dict(self.terms)))

    @cached_property
    def _hash(self) -> int:
        return hash((self.name, self.alphabet, tuple(self.terms.items()),
                     self.classical_bound, self.quantum_value))

    def __hash__(self) -> int:
        return self._hash


CHI4 = Inequality("chi4", ZO, {(r,): 1 for r in (10, 11, 12, 13)},
                  classical_bound=1, quantum_value=Fraction(4, 3))


def triple_free(ineq: Inequality) -> Inequality:
    """The +-1 spec `ineq` with each c A_i A_j A_k replaced by
    c (1 - sum A + sum A_a A_b), where a, b run over the three rays.

    With A = 1 - 2V the two differ by exactly -8c V_i V_j V_k, the one term
    no sub-experiment measures, so this is the spec that the estimator
    reports on a noncontextual assignment (`analysis._expansion`). For chi13
    each c = -mu_ijk <= 0 and every value only falls, so the classical bound
    is kept. A triangle's projectors multiply to 0, so the quantum value is
    kept too."""
    terms = dict(ineq.terms)
    for rays in [m for m in ineq.terms if len(m) == 3]:
        c = terms.pop(rays)
        for m, sign in (((), 1), *(((r,), -1) for r in rays),
                        *((e, 1) for e in combinations(rays, 2))):
            terms[m] = terms.get(m, 0) + sign * c
    return Inequality(f"{ineq.name} without triple terms", PM1, terms,
                      ineq.classical_bound, ineq.quantum_value)


def ray_unit(i: int) -> np.ndarray:
    v = np.asarray(RAYS[i], dtype=complex)
    return v / np.linalg.norm(v)


@dataclass(frozen=True)
class KSModel:
    """The compatibility graph and its weights, kept as read-only copies so
    that `chi13`, built on first use, cannot go stale."""

    edges: frozenset[tuple[int, int]]
    triangles: frozenset[tuple[int, int, int]]
    mu_i: Mapping[int, int]
    mu_ij: Mapping[tuple[int, int], int]
    mu_ijk: Mapping[tuple[int, int, int], int]

    def __post_init__(self):
        for name in ("mu_i", "mu_ij", "mu_ijk"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))

    @cached_property
    def chi13(self) -> Inequality:
        """sum mu_i A_i - sum mu_ij A_i A_j - sum mu_ijk A_i A_j A_k, read
        off the weights so that a modified model carries its own inequality."""
        terms = {(i,): mu for i, mu in self.mu_i.items()}
        terms.update({e: -mu for e, mu in self.mu_ij.items()})
        terms.update({t: -mu for t, mu in self.mu_ijk.items()})
        return Inequality("chi13", PM1, terms, classical_bound=25,
                          quantum_value=Fraction(83, 3))

    @property
    def inequalities(self) -> tuple[Inequality, Inequality]:
        return self.chi13, CHI4


def _triangles(edges: frozenset[tuple[int, int]]) -> frozenset[tuple[int, int, int]]:
    """Each triangle (i, j, k), i < j < k, as edge (i, j) and a common
    neighbour k > j of its two ends."""
    above = {r: {b for a, b in edges if a == r} for r in RAYS}  # higher neighbours
    return frozenset((i, j, k) for i, j in edges for k in above[i] & above[j])


@cache  # the one default model, built on first use and shared by every caller
def build_model() -> KSModel:
    edges = frozenset((i, j) for i, j in combinations(RAYS, 2)
                      if sum(a * b for a, b in zip(RAYS[i], RAYS[j])) == 0)
    triangles = _triangles(edges)
    triangle_edges = {e for t in WEIGHTED_TRIANGLES for e in combinations(t, 2)}
    mu_i = {i: (1 if i <= 9 else 2) for i in RAYS}
    mu_ij = {e: (1 if e in triangle_edges else 2) for e in sorted(edges)}
    mu_ijk = {t: (3 if t in WEIGHTED_TRIANGLES else 0) for t in sorted(triangles)}
    return KSModel(edges, triangles, mu_i, mu_ij, mu_ijk)


def operator_numerator(ineq: Inequality) -> tuple[np.ndarray, int]:
    """The inequality's quantum operator times D^K, as a 3x3 integer array,
    and D^K.

    Integer rays give rational projectors P_r = v v^T / (v . v); each value
    x_r becomes P_r (0/1 alphabet) or I - 2 P_r (+-1 alphabet), and each
    monomial the product of its factors, summed in integer arithmetic over
    one common denominator D^K (D = lcm(v . v), K the top degree) by stacked
    matmuls per degree. No factor entry exceeds D, so no partial sum exceeds
    sum |c| 3^(K-1) D^K: the sums run in int64 below 2^63, else in Python ints."""
    rays = sorted({r for m in ineq.terms for r in m})
    norms = [sum(x * x for x in RAYS[r]) for r in rays]
    d, top = lcm(*norms), max(map(len, ineq.terms), default=0)
    wide = sum(map(abs, ineq.terms.values())) * 3 ** max(top - 1, 0) * d ** top >= 2 ** 63
    v = np.array([RAYS[r] for r in rays], dtype=object if wide else np.int64).reshape(-1, 3)
    p = v[:, :, None] * v[:, None, :] * (d // np.array(norms, dtype=np.int64))[:, None, None]
    factors = d * np.eye(3, dtype=int) - 2 * p if ineq.alphabet == PM1 else p
    by_degree: dict[int, dict[tuple[int, ...], int]] = {}
    for m, c in ineq.terms.items():
        by_degree.setdefault(len(m), {})[m] = c * d ** (top - len(m))
    total = np.zeros(9, dtype=v.dtype)
    for k, terms in by_degree.items():
        idx = np.searchsorted(rays, np.array(list(terms), dtype=int)).T  # factor rows
        products = reduce(np.matmul, factors[idx]) if k else np.eye(3, dtype=int)[None]
        total += np.array([*terms.values()], dtype=v.dtype) @ products.reshape(-1, 9)
    return total.reshape(3, 3), d ** top


def dump_model(model: KSModel) -> str:
    """Structured text dump of rays, edges, triangles and weights."""
    lines = ["# 13-ray qutrit model", "", "[rays]"]
    for i, v in RAYS.items():
        lines.append(f"v{i:<2d} = ({v[0]:2d},{v[1]:2d},{v[2]:2d})   mu_i = {model.mu_i[i]}")
    lines.append("")
    lines.append(f"[edges]  count = {len(model.edges)}")
    for i, j in sorted(model.edges):
        lines.append(f"({i:2d},{j:2d})   mu_ij = {model.mu_ij[(i, j)]}")
    lines.append("")
    lines.append(f"[triangles]  count = {len(model.triangles)}")
    for t in sorted(model.triangles):
        lines.append(f"({t[0]},{t[1]},{t[2]})   mu_ijk = {model.mu_ijk[t]}")
    lines.append("")
    lines.append("[bounds]")
    for ineq in model.inequalities:
        lines.append(f"classical bound {ineq.name:<5} = {ineq.classical_bound}")
    for ineq in model.inequalities:
        lines.append(f"quantum {ineq.name:<5} = {ineq.quantum_value}")
    return "\n".join(lines) + "\n"
