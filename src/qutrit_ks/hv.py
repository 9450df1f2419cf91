"""Classical bounds by exhaustive hidden-variable enumeration.

`enumerate_bound` evaluates an inequality spec from `model` on all 2^13
assignments at once: one int8 column per ray, integer arithmetic only. In the
+-1 alphabet every assignment counts; in the 0/1 alphabet only those obeying
the product rule on every edge and the sum rule on every triangle of the
model's graph. `Assignment`, `evaluate_assignment` and `_admissible` are the
scalar reference for the same spec and rules, one assignment at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

import numpy as np

from .model import CHI4, PM1, ZO, Inequality, KSModel, RAYS


@dataclass(frozen=True)
class Assignment:
    values: tuple[int, ...]
    alphabet: str  # PM1 or ZO

    def __post_init__(self):
        if len(self.values) != 13:
            raise ValueError("assignment needs 13 values")
        allowed = {-1, 1} if self.alphabet == PM1 else {0, 1}
        if not set(self.values) <= allowed:
            raise ValueError(f"values do not match alphabet {self.alphabet}")


@dataclass
class BoundReport:
    maximum: int | None
    argmax_count: int
    admissible_count: int
    histogram: dict[int, int] = field(default_factory=dict)
    colorable: bool = True


def evaluate_assignment(f: Assignment, model: KSModel) -> int:
    """Value of the model's inequality in the assignment's alphabet:
    the weighted 13-observable chi13 for +-1, chi4 for 0/1."""
    by_alphabet = {ineq.alphabet: ineq for ineq in model.inequalities}
    if f.alphabet not in by_alphabet:
        raise ValueError(f"unknown alphabet {f.alphabet!r}")
    return sum(c * prod(f.values[r - 1] for r in rays)
               for rays, c in by_alphabet[f.alphabet].terms.items())


def _admissible(g: tuple[int, ...], model: KSModel) -> bool:
    for i, j in model.edges:
        if g[i - 1] * g[j - 1] != 0:
            return False
    for i, j, k in model.triangles:
        if g[i - 1] + g[j - 1] + g[k - 1] != 1:
            return False
    return True


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
        return BoundReport(maximum=None, argmax_count=0, admissible_count=0,
                           histogram={}, colorable=False)
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
