"""From count tables to inequality values with error bars.

Detection-error correction is the exact inverse of `simulate.readout_rates`,
r_d = P(read dark | dark) and r_b = P(read dark | bright); `confusion_for`
builds it for every noise model. A single dark fraction q inverts as
p = (q - r_b) / (r_d - r_b), clipped to [0, 1].

For a sequential pair the trials that continue to the second detection are a
mixture: first outcome truly dark, or truly bright but misread dark. The
misread component carries P(second dark | first bright), which is not small,
so inverting the second-step marginal alone leaves a bias of order r_b per
edge - far too large for the inequality, whose edge terms enter with weights
up to 16. `correct_pair_ml` therefore solves the two-step moment equations
jointly, using the independently measured (and corrected) single probability
of the second observable to pin down the misread component. Pairs are not
clipped: orthogonal rays have joint probability 0, so a clip at 0 would bias
every edge the same way.

`estimates_from_counts` pools each ray over its contexts in one pass, in exact
Python ints; `assemble` walks the cached expansion of the spec (`coefficients`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations

from .model import CHI4, ZO, Inequality, KSModel
from .simulate import NoiseModel, readout_rates


@dataclass(frozen=True)
class Estimate:
    value: float
    stderr: float
    corrected: bool = False


@dataclass(frozen=True)
class ConfusionModel:
    eps_dark_to_bright: float
    eps_bright_to_dark: float

    def __post_init__(self):
        if self.eps_dark_to_bright + self.eps_bright_to_dark >= 1.0:
            raise ValueError("confusion matrix is not invertible")

    @property
    def visibility(self) -> float:
        return 1.0 - self.eps_dark_to_bright - self.eps_bright_to_dark


def confusion_for(noise: NoiseModel) -> ConfusionModel:
    """The detection-error correction for runs under a `simulate.NoiseModel`:
    the confusion matrix of its readout rates, the identity for ideal noise."""
    r_d, r_b = readout_rates(noise)
    return ConfusionModel(1.0 - r_d, r_b)


def _binomial_stderr(p: float, n: int) -> float:
    if p <= 0.0 or p >= 1.0:
        return 3.0 / n  # rule-of-three bound at the boundary
    return math.sqrt(p * (1.0 - p) / n)


def estimate_probability(dark_count: int, shots: int) -> Estimate:
    if shots <= 0:
        raise ValueError("shots must be positive")
    if not 0 <= dark_count <= shots:
        raise ValueError("dark count outside [0, shots]")
    p = dark_count / shots
    return Estimate(p, _binomial_stderr(p, shots))


def correct_ml(raw: Estimate, confusion: ConfusionModel) -> Estimate:
    """ML inversion of a single observed dark fraction; clipped to [0, 1].

    The stderr is scaled by the inverse visibility and retained even when
    the value clips at a boundary.
    """
    v = confusion.visibility
    p = (raw.value - confusion.eps_bright_to_dark) / v
    p = min(max(p, 0.0), 1.0)
    return Estimate(p, raw.stderr / v, corrected=True)


def correct_pair_ml(counts: dict[str, int], confusion: ConfusionModel,
                    single_second: Estimate) -> Estimate:
    """Corrected joint probability x = P(V_i = 1 and V_j = 1) from B/DB/DD
    counts. Summing P(DD) over the four true branches, with the
    bright-then-dark branch s_j - x by total probability (compatibility),
    gives the moment equation

        q_DD = r_b q1 + vis r_b s_j + vis^2 x,    vis = r_d - r_b,

    solved for x with the observed q1 = (DB + DD) / n and q_DD = DD / n. The
    stderr propagates the binomial error of DD among the continued trials
    and that of s_j.
    """
    n = counts["B"] + counts["DB"] + counts["DD"]
    n_cont = counts["DB"] + counts["DD"]
    r_b, vis = confusion.eps_bright_to_dark, confusion.visibility
    q1 = n_cont / n
    x = (counts["DD"] / n - r_b * (q1 + vis * single_second.value)) / vis ** 2
    # With no continued trial, the rule-of-three bound of DD over all n.
    sigma_dd = q1 * _binomial_stderr(counts["DD"] / n_cont, n_cont) if n_cont else 3.0 / n
    stderr = math.hypot(sigma_dd / vis ** 2, r_b * single_second.stderr / vis)
    return Estimate(x, stderr, corrected=True)


@dataclass
class StateEstimates:
    """Per-state singles and pair estimates, raw and corrected."""

    singles_raw: dict[int, Estimate]
    singles: dict[int, Estimate]
    pairs_raw: dict[tuple[int, int], Estimate]
    pairs: dict[tuple[int, int], Estimate]


def estimates_from_counts(tables, confusion: ConfusionModel | None) -> StateEstimates:
    """Reduce one state's count tables to raw and corrected probability
    estimates; `confusion` None is the identity.

    `tables` is the list of CountTable records for one state. The first
    detection of a sequential pair is a full-statistics measurement of the
    first observable, so those marginals are pooled into the single
    estimates; no measured data is discarded.
    """
    confusion = confusion or ConfusionModel(0.0, 0.0)
    dark_of, shots_of = {}, {}  # ray -> dark count, shots pooled over its contexts
    pair_counts = []
    for t in tables:
        counts, chain = t.counts, t.subexperiment.chain
        if len(chain) == 1:
            dark, bright = counts["D"], counts["B"]
        else:
            dark, bright = counts["DB"] + counts["DD"], counts["B"]
            pair_counts.append((chain, counts, dark + bright))
        ray = chain[0]
        dark_of[ray] = dark_of.get(ray, 0) + dark
        shots_of[ray] = shots_of.get(ray, 0) + dark + bright
    singles_raw, singles = {}, {}
    for ray, dark in dark_of.items():
        raw = singles_raw[ray] = estimate_probability(dark, shots_of[ray])
        singles[ray] = correct_ml(raw, confusion)

    pairs_raw, pairs = {}, {}
    for (i, j), counts, shots in pair_counts:
        pairs_raw[(i, j)] = estimate_probability(counts["DD"], shots)
        if j not in singles:
            raise ValueError(f"missing single estimate for ray v{j}")
        pairs[(i, j)] = correct_pair_ml(counts, confusion, singles[j])
    return StateEstimates(singles_raw, singles, pairs_raw, pairs)


def coefficients(ineq: Inequality) -> dict[tuple[int, ...], int]:
    """Linear coefficients of the inequality in the measured probabilities:
    () the constant, (i,) the single P(V_i = 1), (i, j) the pair
    P(V_i = 1 and V_j = 1).

    0/1 terms are these probabilities already. A +-1 term expands with
    A_r = 1 - 2 V_r as c A_i A_j A_k = c - 2c sum V_r + 4c sum V_r V_s
    - 8c V_i V_j V_k. The three-projector term is dropped: no sub-experiment
    measures it, it vanishes in quantum mechanics (the rays of a triangle are
    mutually orthogonal) and it enters as +8 mu_ijk P_ijk >= 0, so dropping it
    can only lower the value.
    """
    return dict(_expansion(ineq.alphabet, tuple(ineq.terms.items())))


@functools.lru_cache(maxsize=16)
def _expansion(alphabet: str, terms: tuple) -> tuple:
    """`coefficients` as (rays, coefficient) items, computed once per
    distinct inequality content."""
    if alphabet == ZO:
        return terms
    out: dict[tuple[int, ...], int] = {}
    for rays, c in terms:
        out[()] = out.get((), 0) + c
        for r in rays:
            out[(r,)] = out.get((r,), 0) - 2 * c
        for pair in combinations(rays, 2):
            out[pair] = out.get(pair, 0) + 4 * c
    return tuple(out.items())


def assemble(ineq: Inequality, singles: dict[int, Estimate],
             pairs: dict[tuple[int, int], Estimate]) -> Estimate:
    """Inequality value from single and pair estimates.

    The stderr adds the variances as if independent, though a corrected pair
    (i, j) also reads s_j, which enters the sum directly. Over 200 seeds at
    10^4 shots (psi1, psi7, rho10) the spread of corrected chi13 was
    0.99-1.07 times the mean stderr under the paper's flip rates and under
    photon-count readout with r_b = 0.092, and 1.05-1.11 times with flip
    rates 0.2 / 0.3.
    """
    value, var, corrected = 0, 0.0, False
    for rays, coef in _expansion(ineq.alphabet, tuple(ineq.terms.items())):
        if not rays:
            value += coef
            continue
        est = singles.get(rays[0]) if len(rays) == 1 else pairs.get(rays)
        if est is None:
            raise ValueError("missing " + (
                f"single estimate for ray v{rays[0]}" if len(rays) == 1
                else f"pair estimate for edge {rays}"))
        value += coef * est.value
        var += (coef * est.stderr) ** 2
        corrected = corrected or est.corrected
    return Estimate(value, math.sqrt(var), corrected)


def assemble_chi13(singles: dict[int, Estimate],
                   pairs: dict[tuple[int, int], Estimate],
                   model: KSModel) -> Estimate:
    return assemble(model.chi13, singles, pairs)


def assemble_chi4(singles: dict[int, Estimate]) -> Estimate:
    return assemble(CHI4, singles, {})


def significance(est: Estimate, classical_bound: float) -> float:
    if est.stderr <= 0.0:
        raise ValueError("stderr must be positive for a significance")
    return (est.value - classical_bound) / est.stderr
