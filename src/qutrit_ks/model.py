"""The 13-ray qutrit model: rays, compatibility graph, inequality specs.

Rays are stored as signed integers and never pre-normalized; orthogonality is
decided in exact integer arithmetic, so the graph carries no floating-point
ambiguity. Triangles are found as the common neighbours of each edge's
ends in the constructed edge set rather than hard-coded.

Each inequality is one `Inequality` record read by enumeration, the exact
quantum operator, analysis and the CLI; another weighting is a data change.
Every record holds 0/1 terms, monomials in the ray values V_r (the projectors
P_r); `pm1` expands a +-1 witness such as chi13, A_r = 1 - 2 V_r, into them.
The sum and product rules that chi4's bound needs are records too (`rules`).
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


@dataclass(frozen=True)
class Inequality:
    """sum_m c_m prod_{r in m} V_r <= classical_bound for noncontextual 0/1
    values V_r: on every assignment, or with `rules` on those that obey
    `KSModel.rules`. With each V_r the projector P_r, the quantum
    operator is claimed to be quantum_value * I. The terms are kept as a
    read-only copy, so the hash, computed on first use, cannot go stale."""

    name: str
    terms: Mapping[tuple[int, ...], int]  # sorted rays -> integer coefficient
    classical_bound: int
    quantum_value: Fraction
    rules: bool = False

    def __post_init__(self):
        object.__setattr__(self, "terms", MappingProxyType(dict(self.terms)))

    @cached_property
    def _hash(self) -> int:  # sorted, as == does not see the terms' order
        return hash((self.name, tuple(sorted(self.terms.items())),
                     self.classical_bound, self.quantum_value, self.rules))

    def __hash__(self) -> int:
        return self._hash


CHI4 = Inequality("chi4", {(r,): 1 for r in (10, 11, 12, 13)},
                  classical_bound=1, quantum_value=Fraction(4, 3), rules=True)


def pm1(terms: Mapping[tuple[int, ...], int]) -> dict[tuple[int, ...], int]:
    """The 0/1 terms of +-1 terms: with A_r = 1 - 2 V_r, c prod_{r in m} A_r
    is the sum of c (-2)^|s| prod_{r in s} V_r over the subsets s of m."""
    out: dict[tuple[int, ...], int] = {}
    for m, c in terms.items():
        for k in range(len(m) + 1):
            for s in combinations(m, k):
                out[s] = out.get(s, 0) + c * (-2) ** k
    return out


def triple_free(ineq: Inequality) -> Inequality:
    """`ineq` without its degree-3 terms, which no sub-experiment measures:
    the spec that the estimator reports (`analysis._parts`). For chi13 each
    dropped term is 8 mu_ijk V_i V_j V_k >= 0, so every value only falls and
    the classical bound is kept. A triangle's projectors multiply to 0, so
    the quantum value is kept too."""
    return Inequality(f"{ineq.name} without triple terms",
                      {m: c for m, c in ineq.terms.items() if len(m) != 3},
                      ineq.classical_bound, ineq.quantum_value, ineq.rules)


def ray_unit(i: int) -> np.ndarray:
    v = np.asarray(RAYS[i], dtype=complex)
    return v / np.linalg.norm(v)


@dataclass(frozen=True)
class KSModel:
    """The compatibility graph and its weights, kept as read-only copies so
    that `chi13` and `rules`, built on first use, cannot go stale."""

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
        """sum mu_i A_i - sum mu_ij A_i A_j - sum mu_ijk A_i A_j A_k in 0/1
        terms (`pm1`), read off the weights so that a modified model carries
        its own inequality."""
        terms = {(i,): mu for i, mu in self.mu_i.items()}
        terms.update({e: -mu for e, mu in self.mu_ij.items()})
        terms.update({t: -mu for t, mu in self.mu_ijk.items()})
        return Inequality("chi13", pm1(terms), classical_bound=25,
                          quantum_value=Fraction(83, 3))

    @cached_property
    def rules(self) -> tuple[Inequality, ...]:
        """The rules that a `rules` spec's bound needs, each 0 exactly where
        it holds: the sum rule V_i + V_j + V_k - 1 per triangle, then the
        product rule V_i V_j per edge, so a modified graph has its own."""
        return (*(Inequality(f"sum{t}", {(): -1, **{(r,): 1 for r in t}}, 0, Fraction(0))
                  for t in sorted(self.triangles)),
                *(Inequality(f"product{e}", {e: 1}, 0, Fraction(0)) for e in sorted(self.edges)))

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
    V_r becomes P_r, and each monomial the product of its projectors, summed
    in integer arithmetic over one common denominator D^K (D = lcm(v . v), K
    the top degree) by stacked matmuls per degree. No projector entry exceeds
    D, so no partial sum exceeds sum |c| 3^(K-1) D^K: the sums run in int64
    below 2^63, else in Python ints."""
    rays = sorted({r for m in ineq.terms for r in m})
    norms = [sum(x * x for x in RAYS[r]) for r in rays]
    d, top = lcm(*norms), max(map(len, ineq.terms), default=0)
    wide = sum(map(abs, ineq.terms.values())) * 3 ** max(top - 1, 0) * d ** top >= 2 ** 63
    v = np.array([RAYS[r] for r in rays], dtype=object if wide else np.int64).reshape(-1, 3)
    p = v[:, :, None] * v[:, None, :] * (d // np.array(norms, dtype=np.int64))[:, None, None]
    by_degree: dict[int, dict[tuple[int, ...], int]] = {}
    for m, c in ineq.terms.items():
        by_degree.setdefault(len(m), {})[m] = c * d ** (top - len(m))
    total = np.zeros(9, dtype=v.dtype)
    for k, terms in by_degree.items():
        idx = np.searchsorted(rays, np.array(list(terms), dtype=int)).T  # projector rows
        products = reduce(np.matmul, p[idx]) if k else np.eye(3, dtype=int)[None]
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
