"""Classical bounds by exhaustive hidden-variable enumeration.

`enumerate_bound` evaluates an inequality spec from `model` on all 2^13
assignments at once: one int8 column per ray, integer arithmetic only. In the
+-1 alphabet every assignment counts; in the 0/1 alphabet only those obeying
the product rule on every edge and the sum rule on every triangle of the
model's graph. The tests hold a scalar reference for the same spec and
rules, one assignment at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

import numpy as np

from .model import CHI4, ZO, Inequality, KSModel, RAYS


@dataclass
class BoundReport:
    maximum: int | None  # None when no assignment obeys the rules
    argmax_count: int
    admissible_count: int
    histogram: dict[int, int] = field(default_factory=dict)


def enumerate_bound(ineq: Inequality, model: KSModel) -> BoundReport:
    """Exact maximum of `ineq` over every admissible assignment."""
    index = np.arange(2 ** len(RAYS))
    bits = {r: ((index >> (r - 1)) & 1).astype(np.int8) for r in RAYS}
    cols = bits if ineq.alphabet == ZO else {r: 1 - 2 * b for r, b in bits.items()}
    values = np.zeros(index.size, dtype=np.int32)
    for rays, c in ineq.terms.items():
        values += np.int32(c) * prod(cols[r] for r in rays)
    if ineq.alphabet == ZO:
        keep = np.ones(index.size, dtype=bool)
        for i, j in model.edges:
            keep &= (bits[i] & bits[j]) == 0
        for i, j, k in model.triangles:
            keep &= bits[i] + bits[j] + bits[k] == 1
        values = values[keep]
    if values.size == 0:
        return BoundReport(maximum=None, argmax_count=0, admissible_count=0)
    lo = int(values.min())
    counts = np.bincount(values - lo)
    histogram = {lo + int(k): int(counts[k]) for k in np.flatnonzero(counts)}
    best = max(histogram)
    return BoundReport(maximum=best, argmax_count=histogram[best],
                       admissible_count=int(values.size), histogram=histogram)


def max_chi13_noncontextual(model: KSModel) -> BoundReport:
    return enumerate_bound(model.chi13, model)


def max_chi4_constrained(model: KSModel) -> BoundReport:
    return enumerate_bound(CHI4, model)
