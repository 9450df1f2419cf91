"""Qutrit state tomography: rotation settings, least squares on the
noise-folded map, projection to the nearest state.

The measurement set is seven `pulses.MeasurementSetting`s that map no ray:
five single-tone quarter rotations, which alone are rank-deficient, and two
two-pulse sequences; `pulses.compile_setting` builds their unitaries. Each
setting runs three sub-runs, each transferring one basis state to the dark
state |3>: one detection of `simulate.effects` under the run's readout
rates, built once per process for each distinct (settings, rates) and read
by every state of a run, to draw and to solve (`_subrun_dark`). A dark
effect is r_b*I + vis*P, so least squares on the raw frequencies against
that map is the readout correction, unclipped. The trace is exact: rho =
|3><3| + sum_k x_k G_k over eight traceless generators, whose map is checked
for rank 8. A negative eigenvalue sends the estimate to the nearest density
matrix (Smolin, Gambetta & Smith, PRL 108, 070502 (2012)).

`run_tomography` is the one entry point: it simulates and reconstructs a
whole roster in one stacked pass (`_frequencies`, then `_reconstruct`).
Each state keeps its own stream `simulate.derive_rng(seed, label,
"tomography")`, its own contraction with the sub-run stack, one binomial
draw of all its sub-runs, its own least-squares solve and its own
projection; the basis sum, the eigendecomposition and the fidelities run on
the stack in operations whose result for one state has the bits of a
one-state call, so a state's result does not depend on the rest of the
roster.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .pulses import MeasurementSetting, Pulse, compile_setting
from .simulate import (DARK, SWAP, NoiseModel, StateSpec, derive_rng, effects,
                       prepare, readout_rates)


def _traceless_basis() -> np.ndarray:
    """Eight real-coefficient traceless generators: e11 - e33, e22 - e33,
    then the real and imaginary parts of each off-diagonal pair."""
    basis = np.zeros((8, 3, 3), dtype=complex)
    basis[0, 0, 0] = basis[1, 1, 1] = 1.0
    basis[:2, 2, 2] = -1.0
    for k, (a, b) in enumerate([(0, 1), (0, 2), (1, 2)], start=1):
        basis[2 * k, a, b] = basis[2 * k, b, a] = 1.0
        basis[2 * k + 1, a, b], basis[2 * k + 1, b, a] = -1j, 1j
    return basis


_BASIS8 = _traceless_basis()


@functools.lru_cache(maxsize=8)
def _subrun_dark(settings: tuple[MeasurementSetting, ...],
                 rates: tuple[float, float]) -> np.ndarray:
    """Read-only dark effects of every sub-run under `rates`, three per
    setting in settings order; sub-run k swaps basis state k+1 onto |3>, the
    step rule of the simulated singles. Built once per distinct settings
    content and rates."""
    steps = np.array([SWAP[slot] @ compile_setting(s)
                      for s in settings for slot in (1, 2, 3)])
    dark = effects([steps], rates)["D"]
    dark.flags.writeable = False
    return dark


@functools.lru_cache(maxsize=8)
def _checked_response(settings: tuple[MeasurementSetting, ...],
                      rates: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """Read-only map from the 8 traceless parameters to the sub-runs' dark
    probabilities under `rates`, checked for rank 8 at a tolerance relative
    to its scale (it scales with the visibility), and the offset column, the
    dark probabilities of |3><3|; built once per settings content and rates."""
    dark = _subrun_dark(settings, rates)
    a = np.einsum("gij,kji->kg", _BASIS8, dark).real
    if np.linalg.matrix_rank(a) < 8:
        raise ValueError("response map is rank-deficient; extend the settings")
    a.flags.writeable = False
    return a, dark[:, 2, 2].real


def tomography_settings() -> list[MeasurementSetting]:
    """Default informationally complete set, pulse lists chronological; a
    run asserts rank 8, it does not assume it."""
    half = math.pi / 2
    r1, r2 = (lambda phi: Pulse(1, half, phi)), (lambda phi: Pulse(2, half, phi))
    sequences = [(), (r1(0.0),), (r1(half),), (r2(0.0),), (r2(half),),
                 (r2(0.0), r1(0.0)), (r2(0.0), r1(half))]
    return [MeasurementSetting(f"T{k}", {}, seq)
            for k, seq in enumerate(sequences, start=1)]


def _frequencies(states: list[StateSpec], settings: list[MeasurementSetting],
                 noise: NoiseModel, shots: int,
                 rngs: list[np.random.Generator]) -> np.ndarray:
    """Raw dark frequencies, one row per state, one column per sub-run. Each
    state draws the dark counts of all its sub-runs in one binomial call on
    its own generator, which consumes the stream as one draw per sub-run
    would."""
    if shots <= 0:
        raise ValueError("shots must be positive")
    dark = _subrun_dark(tuple(settings), readout_rates(noise))
    counts = []
    for state, rng in zip(states, rngs):
        # One contraction per state: a stacked contraction sums in another
        # order and changes the last bits of a law.
        p = np.einsum("ij,kji->k", prepare(state, noise), dark).real
        counts.append(rng.binomial(shots, np.clip(p, 0.0, 1.0)).tolist())
    # Python division rounds n / shots once, whatever the size of shots.
    return np.array([[n / shots for n in row] for row in counts])


def _nearest_spectrum(mu: list[float]) -> list[float]:
    """Spectrum of the density matrix nearest to a unit-trace Hermitian
    matrix of descending spectrum `mu` (Smolin, Gambetta & Smith 2012): zero
    the negative tail from the bottom and spread its mass evenly over the
    rest. A non-negative spectrum comes back unchanged."""
    i, acc = len(mu), 0.0
    while mu[i - 1] + acc / i < 0.0:
        acc += mu[i - 1]
        i -= 1
    return [m + acc / i for m in mu[:i]] + [0.0] * (len(mu) - i)


@dataclass
class ReconstructionResult:
    rho: np.ndarray
    fidelity_to_target: float
    residual: float
    projected: bool


def _reconstruct(q: np.ndarray, settings: list[MeasurementSetting],
                 rates: tuple[float, float],
                 targets: list[np.ndarray]) -> list[ReconstructionResult]:
    """Least squares of each row of the stack `q` (raw sub-run dark
    frequencies in settings order) against the sub-run map under `rates`,
    the nearest density matrix, and the fidelity to the target at the same
    index. `residual` is the norm of the fit's misses, in frequency."""
    a, offset = _checked_response(tuple(settings), rates)
    # One solve per state: one solve with several right-hand sides gives
    # most solutions other last bits than solving each alone.
    x = np.empty((len(q), 8))
    residuals = []
    for k, row in enumerate(q - offset):
        x[k] = np.linalg.lstsq(a, row, rcond=None)[0]
        residuals.append(float(np.linalg.norm(a @ x[k] - row)))
    # Generators added one at a time from 0, which fixes the signs of zeros.
    rho = DARK + sum(x[:, k, None, None] * g for k, g in enumerate(_BASIS8))
    w, u = linalg.hermitian_eig(rho)
    projected = w.min(axis=-1) < 0.0
    w = np.array([_nearest_spectrum(mu) for mu in w.tolist()])
    rho = (u * w[:, None, :]) @ linalg.adjoint(u)
    rho = (rho + linalg.adjoint(rho)) / 2
    return [ReconstructionResult(r, f, res, proj) for r, f, res, proj
            in zip(rho, linalg.fidelities(rho, targets), residuals,
                   projected.tolist())]


def run_tomography(roster: list[StateSpec], settings: list[MeasurementSetting],
                   noise: NoiseModel, shots: int,
                   master_seed: int) -> list[ReconstructionResult]:
    """Simulated tomography of every state of `roster`, each on its own
    stream `derive_rng(master_seed, label, "tomography")`, reconstructed in
    one stacked pass and compared with the state's target `rho`. A state's
    result does not depend on the rest of the roster: it equals, field for
    field, the result of a roster of that state alone."""
    labels = [state.label for state in roster]
    if repeated := [label for label in labels if labels.count(label) > 1]:
        raise ValueError(f"repeated state label: {repeated[0]}")
    rngs = [derive_rng(master_seed, label, "tomography") for label in labels]
    freqs = _frequencies(roster, settings, noise, shots, rngs)
    return _reconstruct(freqs, settings, readout_rates(noise),
                        [state.rho for state in roster])


def format_density_matrix(rho: np.ndarray) -> str:
    """3x3 complex entries as real/imag pairs with 12 significant digits."""
    lines = []
    for r in range(3):
        cells = [f"{rho[r, c].real:+.12g}{rho[r, c].imag:+.12g}j" for c in range(3)]
        lines.append("  ".join(cells))
    return "\n".join(lines) + "\n"
