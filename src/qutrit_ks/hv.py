"""Classical bounds by exhaustive hidden-variable enumeration.

`enumerate_bound` evaluates an inequality spec from `model` on all 2^13
assignments at once, in integer arithmetic: one gather from a ray-major int8
table per group of terms of equal degree and coefficient, grouped once per spec
content. In the +-1 alphabet every assignment counts; in the 0/1 alphabet only
those obeying the product rule on every edge and the sum rule on every triangle
of the model's graph. The tests hold a scalar reference, one spec at a time."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .model import CHI4, ZO, Inequality, KSModel, RAYS


@dataclass
class BoundReport:
    maximum: int | None  # None when no assignment obeys the rules
    argmax_count: int
    admissible_count: int
    histogram: dict[int, int] = field(default_factory=dict)


@functools.cache
def _table(alphabet: str) -> np.ndarray:
    """Read-only x_r of assignment a at [r - 1, a], V_r being bit r - 1 of a."""
    index = np.arange(2 ** len(RAYS), dtype=np.uint16)
    bits = np.stack([(index >> r & 1).astype(np.int8) for r in range(len(RAYS))])
    table = bits if alphabet == ZO else 1 - 2 * bits
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=8)  # once per spec content; a refused spec raises every call
def _groups(ineq: Inequality) -> tuple[tuple[np.int64, np.ndarray], ...]:
    if (sum(map(abs, ineq.terms.values())) >= 2 ** 63
            or not {r for m in ineq.terms for r in m} <= RAYS.keys()):
        raise ValueError(f"inequality {ineq.name}: terms need rays 1..13 and a sum "
                         "of |coefficients| below 2^63")
    groups: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for rays, c in ineq.terms.items():
        groups.setdefault((len(rays), c), []).append(rays)
    return tuple((np.int64(c), np.broadcast_to(np.array(m, dtype=np.intp) - 1, (len(m), k)))
                 for (k, c), m in groups.items())  # table rows as read-only views


def enumerate_bound(ineq: Inequality, model: KSModel) -> BoundReport:
    """Exact maximum of `ineq` over every admissible assignment."""
    table = _table(ineq.alphabet)
    values = np.zeros(table.shape[1], dtype=np.int64)
    for c, rows in _groups(ineq):
        products = table[rows].prod(axis=1, dtype=np.int8)
        # products are -1, 0 or 1: the smallest dtype holding -1 - m sums m exactly
        values += c * products.sum(axis=0, dtype=np.min_scalar_type(-1 - len(rows)))
    if ineq.alphabet == ZO:
        edges, triangles = (np.array(list(s), dtype=np.intp).reshape(-1, n) - 1
                            for s, n in ((model.edges, 2), (model.triangles, 3)))
        keep = np.flatnonzero((table[triangles].sum(axis=1, dtype=np.int8) == 1).all(axis=0))
        # the product rule only on assignments the sum rule keeps: a small gather
        values = values[keep[~table[:, keep][edges].all(axis=1).any(axis=0)]]
    if values.size == 0:
        return BoundReport(maximum=None, argmax_count=0, admissible_count=0)
    keys, counts = np.unique(values, return_counts=True)
    return BoundReport(maximum=int(keys[-1]), argmax_count=int(counts[-1]),
                       admissible_count=int(values.size),
                       histogram=dict(zip(keys.tolist(), counts.tolist())))


def max_chi13_noncontextual(model: KSModel) -> BoundReport:
    return enumerate_bound(model.chi13, model)


def max_chi4_constrained(model: KSModel) -> BoundReport:
    return enumerate_bound(CHI4, model)
