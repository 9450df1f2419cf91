"""From count tables to inequality values with error bars.

Readout is the rate pair (r_d, r_b) that `simulate.readout_rates` returns
and the simulation draws with: r_d = P(read dark | dark), r_b = P(read dark
| bright), vis = r_d - r_b; the ideal pair (1, 0) gives the raw value. Every
corrected probability is affine in the frequencies f of the count tables (D,
B for a single; B, DB, DD for a pair), so an inequality is w0 + W . f, with
(w0, W) built once per inequality, table layout and rate pair
(`affine_map`), as in Guhne et al., PRA 81, 022121 (2010). A single s_r =
(q_r - r_b) / vis pools the first-detection dark fraction of every table
that measures r first, weighted n_k / N_r. A pair's continued trials mix a
truly dark first outcome with a misread bright one; summing P(DD) over the
four true branches, the bright-then-dark one s_j - x by compatibility, gives
x = (f_DD - r_b (f_DB + f_DD) - r_b vis s_j) / vis^2. Nothing is clipped: a
clip biases every state with a probability at a boundary. The tables are
independent multinomial draws, so sum_k Var_k(W) / n_k over each table's
observed frequencies is the exact variance.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import accumulate, combinations
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .model import CHI4, ZO, Inequality, KSModel


@dataclass(frozen=True)
class Estimate:
    value: float
    stderr: float
    corrected: bool = False


class Frequencies(NamedTuple):
    """One state's count tables as the estimator reads them: each table's
    (chain, count total n_k) and all frequencies, table after table."""
    layout: tuple[tuple[tuple[int, ...], int], ...]
    f: np.ndarray


class _Layout(tuple):
    """A table layout that computes its hash once, however many estimates
    look up the estimator cache by it."""

    @functools.cached_property
    def _hash(self) -> int:
        return tuple.__hash__(self)

    def __hash__(self) -> int:
        return self._hash


@functools.lru_cache(maxsize=8)
def _interned(layout: tuple) -> _Layout:
    """The one `_Layout` of this content: the `Frequencies` of every run with
    this layout share it, so an estimate finds its cached map by identity,
    without rehashing or comparing the layout."""
    return _Layout(layout)


def frequencies(tables) -> Frequencies:
    """The `Frequencies` of one state's `simulate.CountTable`s; each is
    Python's correctly rounded count / n_k. Each table's counts are read
    once, in draw order: D, B for a single; B, DB, DD for a pair."""
    layout, f = [], []
    for t in tables:
        counts, chain = t.counts, t.subexperiment.chain
        single = len(chain) == 1
        if single:
            d, b = counts["D"], counts["B"]
            n = d + b
        else:
            b, db, dd = counts["B"], counts["DB"], counts["DD"]
            n = b + db + dd
        if n <= 0:
            raise ValueError(f"count table {t.subexperiment.key} has no counts")
        layout.append((chain, n))
        f += (d / n, b / n) if single else (b / n, db / n, dd / n)
    return Frequencies(_interned(tuple(layout)), np.array(f))


class AffineMap(NamedTuple):
    """value = w0 + w . f; `table` holds the table of each entry of f."""
    w0: float
    w: np.ndarray
    table: np.ndarray
    n: np.ndarray  # each table's count total


@functools.lru_cache(maxsize=32)
def affine_map(ineq: Inequality, layout: tuple, rates: tuple[float, float]) -> AffineMap:
    """The estimator of `ineq` over tables laid out as `layout` and read
    with `rates` = (r_d, r_b), built once per distinct content of the three.
    An inequality hashes once, and so does a layout from `frequencies`."""
    r_d, r_b = rates
    if (1.0 - r_d) + r_b >= 1.0:  # vis <= 0, or rounded up from 0 as at (0.3, 0.3)
        raise ValueError(f"readout rates {rates} do not have r_d > r_b")
    vis = 1.0 - (1.0 - r_d) - r_b
    sizes = [len(chain) + 1 for chain, _ in layout]
    # The dark entries of f by table (D, or DB and DD), with the table's
    # total, for the first ray it measures and for its pair.
    entries = {}
    for start, (chain, n) in zip(accumulate(sizes, initial=0), layout):
        dark = [start] if len(chain) == 1 else [start + 1, start + 2]
        entries.setdefault(chain[:1], []).append((dark, n))
        if len(chain) == 2:
            entries.setdefault(chain, []).append((dark, n))
    w, w0 = np.zeros(sum(sizes)), 0.0

    def add(rays, weights):
        """Add `weights` * n_k / N to the entries of each table k of `rays`."""
        if rays not in entries:
            raise ValueError(f"missing estimate for v{'-v'.join(map(str, rays))}")
        total = sum(n for _, n in entries[rays])
        for index, n in entries[rays]:
            w[index] += np.multiply(weights, n / total)

    def single(ray, coef):  # adds coef * s_ray; returns its constant
        add((ray,), coef / vis)
        return -coef * r_b / vis

    for rays, coef in _expansion(ineq):
        if len(rays) == 2:
            c = coef / vis ** 2
            add(rays, (-r_b * c, (1.0 - r_b) * c))
            w0 += single(rays[1], -coef * r_b / vis)
        else:
            w0 += single(rays[0], coef) if rays else coef
    table = np.repeat(np.arange(len(layout)), sizes)
    n = np.array([float(n_k) for _, n_k in layout])
    for a in (w, table, n):
        a.flags.writeable = False
    return AffineMap(w0, w, table, n)


def _expansion(ineq: Inequality):
    """The inequality as (rays, coefficient) items over the measured
    probabilities: () the constant, (i,) P(V_i = 1), (i, j) P(V_i = V_j = 1).
    A +-1 term expands with A_r = 1 - 2 V_r as c A_i A_j A_k = c - 2c sum V_r
    + 4c sum V_r V_s - 8c V_i V_j V_k. No sub-experiment measures the triple
    term; it vanishes in quantum mechanics (a triangle's rays are mutually
    orthogonal) and enters as +8 mu_ijk P_ijk >= 0, so dropping it can only
    lower the value."""
    if ineq.alphabet == ZO:
        return ineq.terms.items()
    out: dict[tuple[int, ...], int] = {}
    for rays, c in ineq.terms.items():
        out[()] = out.get((), 0) + c
        for r in rays:
            out[(r,)] = out.get((r,), 0) - 2 * c
        for pair in combinations(rays, 2):
            out[pair] = out.get(pair, 0) + 4 * c
    return out.items()


def estimate(ineq: Inequality, freqs: Frequencies,
             rates: tuple[float, float]) -> Estimate:
    """Value and exact multinomial stderr of `ineq` from one state's
    `Frequencies`, corrected for readout `rates`; raw at rates (1, 0)."""
    w0, w, table, n = affine_map(ineq, freqs.layout, rates)
    f = freqs.f
    mean = np.bincount(table, weights=w * f)  # W . f_k of each table
    dev = w - mean[table]
    var = np.bincount(table, weights=f * dev * dev) / n
    return Estimate(w0 + float(np.add.reduce(mean)), math.sqrt(np.add.reduce(var)))


def significance(est: Estimate, classical_bound: float) -> float:
    """(value - bound) / stderr; nan at stderr 0, as when each table saw one outcome."""
    if est.stderr == 0.0:
        return math.nan
    return (est.value - classical_bound) / est.stderr


# The names the benchmark's workloads still call, as thin adapters over
# `estimate`; ROADMAP item 1's port removes them. The package never calls them.
def ConfusionModel(eps_dark_to_bright, eps_bright_to_dark):
    return 1.0 - eps_dark_to_bright, eps_bright_to_dark


def estimates_from_counts(tables, rates):
    freqs, raw = frequencies(tables), (1.0, 0.0)
    return SimpleNamespace(singles=(freqs, rates or raw), pairs=None,
                           singles_raw=(freqs, raw), pairs_raw=None)


def assemble_chi13(singles, pairs, model: KSModel) -> Estimate:
    return estimate(model.chi13, *singles)


def assemble_chi4(singles) -> Estimate:
    return estimate(CHI4, *singles)
