"""Classical bounds by exhaustive hidden-variable enumeration.

`enumerate_bound` evaluates an inequality spec from `model` on all 2^13
assignments at once, exactly. Assignment a = 128 h + l holds rays 1-7 in the
bits of l and rays 8-13 in the bits of h, so every monomial is a low part
times a high part, and all 8,192 values are one product G^T (C F): F and G
hold each distinct low and high part's value on the 128 and 64 half
assignments, and C the coefficients, placed once per spec content. A spec
with `rules` counts only the assignments where every one of `KSModel.rules`
holds: their squares sum to one penalty, built once per rule set, evaluated
alike on every call and 0 exactly there; any other counts every one. The
tests hold a scalar reference, one spec at a time."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

import numpy as np

from .model import CHI4, Inequality, KSModel, RAYS

LOW = 7  # rays 1..LOW form the low half of an assignment


@dataclass
class BoundReport:
    maximum: int | None  # None when no assignment obeys the rules
    argmax_count: int
    admissible_count: int
    histogram: dict[int, int] = field(default_factory=dict)


@functools.cache
def _table() -> tuple[np.ndarray, np.ndarray]:
    """Read-only int8 half tables: V_r of low half l at [r - 1, l] for rays
    1-7 and of high half h at [r - 8, h] for rays 8-13, V_r being bit r - 1
    of 128 h + l. Each ends in a row of ones, the index that pads a part."""
    def half(n: int) -> np.ndarray:
        bits = (np.arange(2 ** n) >> np.arange(n)[:, None] & 1).astype(np.int8)
        table = np.vstack([bits, np.ones((1, 2 ** n), dtype=np.int8)])
        table.flags.writeable = False
        return table
    return half(LOW), half(len(RAYS) - LOW)


@functools.lru_cache(maxsize=8)  # once per spec content; a refused spec raises every call
def _coefficients(ineq: Inequality) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """C at [high part, low part], and each part's table rows padded with the
    ones row, all read-only. F and G are 0 or 1, so every entry of C F
    and of G^T (C F), and every partial sum on the way, is an integer of size
    at most sum |c|. Below 2^53 float64 holds each of them exactly, and the
    product runs in BLAS; from there up to the refused 2^63 it runs in int64."""
    total = sum(map(abs, ineq.terms.values()))
    if total >= 2 ** 63 or not {r for m in ineq.terms for r in m} <= RAYS.keys():
        raise ValueError(f"inequality {ineq.name}: terms need rays 1..13 and a sum "
                         "of |coefficients| below 2^63")
    lows: dict[tuple[int, ...], int] = {}
    highs: dict[tuple[int, ...], int] = {}
    cells = [(highs.setdefault(tuple(r - 1 - LOW for r in rays if r > LOW), len(highs)),
              lows.setdefault(tuple(r - 1 for r in rays if r <= LOW), len(lows)), coef)
             for rays, coef in ineq.terms.items()]
    c = np.zeros((len(highs), len(lows)), dtype=np.float64 if total < 2 ** 53 else np.int64)
    for h, l, coef in cells:
        c[h, l] = coef

    def rows(parts: dict, pad: int) -> np.ndarray:
        k = max(map(len, parts), default=0)
        return np.array([p + (pad,) * (k - len(p)) for p in parts],
                        dtype=np.intp).reshape(len(parts), k)
    out = c, rows(lows, LOW), rows(highs, len(RAYS) - LOW)
    for a in out:
        a.flags.writeable = False
    return out


def _values(ineq: Inequality) -> np.ndarray:
    """The spec's int64 value at every assignment, indexed by assignment."""
    c, low, high = _coefficients(ineq)
    lo, hi = _table()
    f = lo[low].prod(axis=1, dtype=np.int8).astype(c.dtype)
    g = hi[high].prod(axis=1, dtype=np.int8).astype(c.dtype)
    return (g.T @ (c @ f)).ravel().astype(np.int64)


@functools.lru_cache(maxsize=8)  # once per rule set
def _penalty(rules: tuple[Inequality, ...]) -> Inequality:
    """The rules as one penalty, the sum of each rule squared (V^2 = V): a
    nonnegative integer, 0 exactly where every rule holds."""
    terms: dict[tuple[int, ...], int] = {}
    for rule in rules:
        for (m, c), (n, d) in product(rule.terms.items(), repeat=2):
            key = tuple(sorted({*m, *n}))
            terms[key] = terms.get(key, 0) + c * d
    return Inequality("rules", terms, classical_bound=0, quantum_value=Fraction(0))


def enumerate_bound(ineq: Inequality, model: KSModel) -> BoundReport:
    """Exact maximum of `ineq` over every admissible assignment."""
    values = _values(ineq)
    if ineq.rules:
        values = values[_values(_penalty(model.rules)) == 0]
    if values.size == 0:
        return BoundReport(maximum=None, argmax_count=0, admissible_count=0)
    low = values.min()
    if int(values.max()) - int(low) + 1 < values.size:  # a span below the count: bin it
        counts = np.bincount(values - low)
        keys = np.flatnonzero(counts)
        keys, counts = keys + low, counts[keys]
    else:
        keys, counts = np.unique(values, return_counts=True)
    return BoundReport(maximum=int(keys[-1]), argmax_count=int(counts[-1]),
                       admissible_count=int(values.size),
                       histogram=dict(zip(keys.tolist(), counts.tolist())))


def max_chi13_noncontextual(model: KSModel) -> BoundReport:
    return enumerate_bound(model.chi13, model)


def max_chi4_constrained(model: KSModel) -> BoundReport:
    return enumerate_bound(CHI4, model)
