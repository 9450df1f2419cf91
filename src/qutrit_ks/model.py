"""The 13-ray qutrit model: rays, compatibility graph, inequality weights.

Rays are stored as signed integers and never pre-normalized; orthogonality is
decided in exact integer arithmetic, so the graph carries no floating-point
ambiguity. Triangles are discovered by clique search over the constructed
edge set rather than hard-coded.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import linalg

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

CLASSICAL_BOUND_CHI13 = 25
CLASSICAL_BOUND_CHI4 = 1


def ray_unit(i: int) -> np.ndarray:
    v = np.asarray(RAYS[i], dtype=complex)
    return v / np.linalg.norm(v)


@dataclass(frozen=True)
class KSModel:
    """Immutable bundle of projectors, observables, graph and weights."""

    projectors: dict[int, np.ndarray]
    observables: dict[int, np.ndarray]
    edges: frozenset[tuple[int, int]]
    triangles: frozenset[tuple[int, int, int]]
    mu_i: dict[int, int]
    mu_ij: dict[tuple[int, int], int]
    mu_ijk: dict[tuple[int, int, int], int]
    classical_bound_chi13: int = CLASSICAL_BOUND_CHI13
    classical_bound_chi4: int = CLASSICAL_BOUND_CHI4


def _integer_edges() -> frozenset[tuple[int, int]]:
    edges = set()
    for i, j in combinations(RAYS, 2):
        dot = sum(a * b for a, b in zip(RAYS[i], RAYS[j]))
        if dot == 0:
            edges.add((i, j))
    return frozenset(edges)


def _cliques3(edges: frozenset[tuple[int, int]]) -> frozenset[tuple[int, int, int]]:
    e = set(edges)
    tri = set()
    for i, j, k in combinations(RAYS, 3):
        if (i, j) in e and (i, k) in e and (j, k) in e:
            tri.add((i, j, k))
    return frozenset(tri)


def build_model() -> KSModel:
    projectors = {i: linalg.projector_from_ray(RAYS[i]) for i in RAYS}
    observables = {i: linalg.IDENTITY - 2 * projectors[i] for i in RAYS}
    edges = _integer_edges()
    triangles = _cliques3(edges)

    triangle_edges = {
        pair for tri in WEIGHTED_TRIANGLES for pair in combinations(tri, 2)
    }
    mu_i = {i: (1 if i <= 9 else 2) for i in RAYS}
    mu_ij = {e: (1 if e in triangle_edges else 2) for e in sorted(edges)}
    mu_ijk = {t: (3 if t in WEIGHTED_TRIANGLES else 0) for t in sorted(triangles)}
    return KSModel(projectors, observables, edges, triangles, mu_i, mu_ij, mu_ijk)


def chi13_operator(model: KSModel) -> np.ndarray:
    """Sum mu_i A_i - sum mu_ij A_i A_j - sum mu_ijk A_i A_j A_k."""
    a = model.observables
    out = np.zeros((3, 3), dtype=complex)
    for i, mu in model.mu_i.items():
        out += mu * a[i]
    for (i, j), mu in model.mu_ij.items():
        out -= mu * (a[i] @ a[j])
    for (i, j, k), mu in model.mu_ijk.items():
        out -= mu * (a[i] @ a[j] @ a[k])
    return out


def chi4_operator(model: KSModel) -> np.ndarray:
    """Sum of the projectors onto rays 10..13; equals (4/3) I."""
    out = np.zeros((3, 3), dtype=complex)
    for i in (10, 11, 12, 13):
        out += model.projectors[i]
    return out


def quantum_expectation(rho: np.ndarray, observable: np.ndarray) -> float:
    """Tr(rho O) for a Hermitian observable on a valid density matrix."""
    rho = linalg.validate_density_matrix(rho)
    if not linalg.is_hermitian(observable, atol=linalg.ATOL_DM_HERMITIAN):
        raise ValueError("observable is not Hermitian")
    val = complex(np.trace(rho @ observable))
    if abs(val.imag) >= 1e-8:
        raise ValueError(f"expectation has non-negligible imaginary part {val.imag:.3e}")
    return float(val.real)


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
    lines.append(f"[bounds]")
    lines.append(f"classical bound chi13 = {model.classical_bound_chi13}")
    lines.append(f"classical bound chi4  = {model.classical_bound_chi4}")
    lines.append("quantum chi13 = 83/3")
    lines.append("quantum chi4  = 4/3")
    return "\n".join(lines) + "\n"
