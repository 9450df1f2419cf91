"""From count tables to inequality values with error bars.

Readout is the rate pair (r_d, r_b) that `simulate.readout_rates` returns
and the simulation draws with: r_d = P(read dark | dark), r_b = P(read dark
| bright), vis = r_d - r_b; the ideal pair (1, 0) gives the raw value. An
inequality's 0/1 terms, less the unmeasured triples (`model.triple_free`),
are the probabilities P(V_i = 1) and P(V_i = V_j = 1). Each corrected one is
affine in the frequencies f of the count tables, so an inequality is
w0 + W . f, as in Guhne et al., PRA 81, 022121 (2010). f has the draw's
layout, three entries per table in draw order, (0, D, B) for a single and
(B, DB, DD) for a pair: the columns of `simulate.PlanEffects`, so w0 + W . f
at a law of `simulate._laws` is the exact mean. (w0, W) sums six monomials
in u = 1 / vis and r_b times rows of Python ints over one scale L, built
once per inequality and table layout (`_parts`); at a rate pair each
coefficient is one integer over another, exact as a `Fraction` or rounded
once by int / int (`affine_map`). A single s_r = (q_r - r_b) / vis pools the
first-detection dark fraction of every table that measures r first, weighted
n_k / N_r. A pair's continued trials mix a truly dark first outcome with a
misread bright one; summing P(DD) over the four true branches, the
bright-then-dark one s_j - x by compatibility, gives x = (f_DD - r_b (f_DB +
f_DD) - r_b vis s_j) / vis^2. Nothing is clipped: a clip biases every state
with a probability at a boundary. The tables are independent multinomial
draws, so sum_k Var_k(W) / n_k over each table's observed frequencies is the
exact variance."""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .model import CHI4, Inequality, KSModel, triple_free


@dataclass(frozen=True)
class Estimate:
    value: float
    stderr: float
    corrected: bool = False


class Frequencies(NamedTuple):
    """Count tables as the estimator reads them: each table's (chain, count
    total n_k) and its three frequencies, table after table, as one state's
    (3n,) vector or a roster's (S, 3n) stack, whose states share the totals."""
    layout: tuple[tuple[tuple[int, ...], int], ...]
    f: np.ndarray


def frequencies(plan, counts: np.ndarray) -> Frequencies:
    """The `Frequencies` of one state's (n, 3) `counts`, or of a roster's
    (S, n, 3) stack, under `plan`, a sequence of `simulate.SubExperiment`s,
    in draw order: (0, D, B) for a single; (B, DB, DD) for a pair. Each is
    Python's correctly rounded count / n_k, which numpy's division, rounding
    a count first, is not past 2^53."""
    n = counts.sum(axis=-1)  # a drawn row sums to its shots, below 2^63
    rows = n.tolist() if n.ndim == 2 else [n.tolist()]
    for row in rows:
        if min(row) <= 0:
            raise ValueError(f"count table {plan[row.index(min(row))].key} has no counts")
    totals = rows[0]
    if rows.count(totals) < len(rows):
        raise ValueError("the states of a stack have different count totals")
    if max(totals) > 2 ** 53:
        f = (counts.astype(object) / n.astype(object)[..., None]).astype(float)
    else:
        f = counts / n[..., None]
    return Frequencies(tuple(zip([sub.chain for sub in plan], totals)),
                       f.ravel() if f.ndim == 2 else f.reshape(len(f), -1))


class AffineMap(NamedTuple):
    """value = w0 + w . f; `table` holds the table of each entry of f, three
    per table. Floats at float rates, `Fraction`s at `Fraction` rates."""
    w0: float
    w: np.ndarray
    table: np.ndarray
    n: np.ndarray  # each table's count total


@functools.lru_cache(maxsize=8)
def _parts(ineq: Inequality, layout: tuple) -> tuple:
    """`triple_free(ineq)` over tables laid out as `layout` without the rates,
    built once per content of the two: (rows, L, table, n), row m the
    coefficients, in w0 (column 0) and W, of the m-th monomial of (1, u, u^2,
    r_b u, r_b u^2, (r_b u)^2), u = 1 / vis, times the least L that makes
    each an int."""
    # Table k's dark entries of W (D, or DB and DD: 3k + 2 on) and total, by first ray and by pair.
    entries = {}
    for k, (chain, n) in enumerate(layout):
        dark = range(3 * k + 2, 3 * k + 2 + len(chain))
        for rays in {chain[:1], chain}:  # one key for a single
            entries.setdefault(rays, []).append((dark, n))
    scale = math.lcm(*(sum(n for _, n in tables) for tables in entries.values()))
    rows = [[0] * (1 + 3 * len(layout)) for _ in range(6)]

    def add(monomial, rays, weights):
        """Add L * weight * n_k / N to row `monomial` at the dark entries of tables k of `rays`."""
        if rays not in entries:
            raise ValueError(f"missing estimate for v{'-v'.join(map(str, rays))}")
        per = scale // sum(n for _, n in entries[rays])
        for index, n in entries[rays]:
            for i, weight in zip(index, weights):
                rows[monomial][i] += weight * n * per

    # A single's coef s_i adds coef u to i's dark entries and -coef r_b u to
    # w0; a pair's coef x_ij adds -coef r_b u^2 to DB, coef u^2 - coef r_b u^2
    # to DD, and the single -coef r_b u s_j. No table measures a triple term.
    for rays, coef in triple_free(ineq).terms.items():
        if len(rays) == 2:
            add(2, rays, (0, coef))
            add(4, rays, (-coef, -coef))
            add(4, rays[1:], (-coef, -coef))
            rows[5][0] += coef * scale
        elif rays:
            add(1, rays, (coef, coef))
            rows[3][0] -= coef * scale
        else:
            rows[0][0] += coef * scale
    g = math.gcd(scale, *(math.gcd(*row) for row in rows))
    table, n = np.repeat(np.arange(len(layout)), 3), np.array([float(n_k) for _, n_k in layout])
    table.flags.writeable = n.flags.writeable = False
    return tuple(tuple([x // g for x in row]) for row in rows), scale // g, table, n


@functools.lru_cache(maxsize=32, typed=True)  # as (1.0, 0.0) == (Fraction(1), Fraction(0))
def affine_map(ineq: Inequality, layout: tuple, r_d: float, r_b: float) -> AffineMap:
    """The estimator of `ineq` over `layout`'s tables at rates (r_d, r_b), once
    per content of the four and the rates' types: each coefficient is one int
    over another, exact at `Fraction` rates, rounded once by int / int at floats."""
    if (1 - r_d) + r_b >= 1:  # vis <= 0, or rounded up from 0 as at (0.3, 0.3)
        raise ValueError(f"readout rates {(float(r_d), float(r_b))} do not have r_d > r_b")
    rows, scale, table, n = _parts(ineq, layout)
    (p, q), (c, d) = r_d.as_integer_ratio(), r_b.as_integer_ratio()
    e, s, t = p * d - c * q, q * d, c * q  # vis = e / s, u = s / e, r_b u = t / e
    monomials = (e * e, e * s, s * s, e * t, s * t, t * t)  # `_parts`' monomials times e^2
    divide = Fraction if isinstance(r_d, Fraction) else operator.truediv
    v = [divide(sum(map(operator.mul, monomials, col)), e * e * scale) for col in zip(*rows)]
    w = np.array(v[1:])
    w.flags.writeable = False
    return AffineMap(v[0], w, table, n)


def estimate(ineq: Inequality, freqs: Frequencies,
             rates: tuple[float, float]) -> Estimate | list[Estimate]:
    """Value and exact multinomial stderr of `ineq` from `Frequencies`,
    corrected for readout `rates`; raw at rates (1, 0). One state's (3n,)
    f gives its `Estimate`; an (S, 3n) stack gives one per state, each with
    the bits of a call on that state alone."""
    w0, w, table, n = affine_map(ineq, freqs.layout, *rates)
    if w.dtype == object:  # the exact map at `Fraction` rates, rounded once
        w0, w = float(w0), w.astype(float)
    f = np.asarray(freqs.f)
    if f.ndim == 2:  # the map tiled per state: table k of state s is bin k + s * len(n)
        table = (table + len(n) * np.arange(len(f))[:, None]).ravel()
        w, n = np.tile(w, len(f)), np.tile(n, len(f))
    flat = f.ravel()
    mean = np.bincount(table, weights=w * flat)  # W . f_k of each table, in one-state order
    dev = w - mean[table]
    var = np.bincount(table, weights=flat * dev * dev) / n
    if f.ndim == 1:
        return Estimate(w0 + float(np.add.reduce(mean)), math.sqrt(np.add.reduce(var)))
    by_state = (len(f), -1)  # each state's sums reduce as a one-state call's do
    return [Estimate(w0 + v, math.sqrt(e)) for v, e in zip(
        np.add.reduce(mean.reshape(by_state), 1).tolist(),
        np.add.reduce(var.reshape(by_state), 1).tolist())]


def significance(est: Estimate, classical_bound: float) -> float:
    """(value - bound) / stderr; nan at stderr 0, as when each table saw one outcome."""
    if est.stderr == 0.0:
        return math.nan
    return (est.value - classical_bound) / est.stderr


# The names the benchmark's workloads still call, as thin adapters over
# `estimate`; ROADMAP item 1's port removes them. The package never calls them.
def ConfusionModel(eps_dark_to_bright, eps_bright_to_dark):
    return 1.0 - eps_dark_to_bright, eps_bright_to_dark


def _table_counts(tables) -> tuple[list, np.ndarray]:
    """`simulate.CountTable`s as the plan and the (n, 3) counts `frequencies` reads."""
    plan, flat = [], []
    for t in tables:
        c = t.counts
        plan.append(t.subexperiment)
        flat += (0, c["D"], c["B"]) if len(t.subexperiment.chain) == 1 else (c["B"], c["DB"], c["DD"])
    return plan, np.array(flat, dtype=np.int64).reshape(-1, 3)


def estimates_from_counts(tables, rates):
    freqs, raw = frequencies(*_table_counts(tables)), (1.0, 0.0)
    return SimpleNamespace(singles=(freqs, rates or raw), pairs=None,
                           singles_raw=(freqs, raw), pairs_raw=None)


def assemble_chi13(singles, pairs, model: KSModel) -> Estimate:
    return estimate(model.chi13, *singles)


def assemble_chi4(singles) -> Estimate:
    return estimate(CHI4, *singles)
