"""Qutrit state tomography: rotation settings, least squares on the
noise-folded map, projection to the nearest state.

The measurement set is seven `pulses.MeasurementSetting`s that map no ray:
five single-tone quarter rotations, which alone are rank-deficient, and two
two-pulse sequences; `pulses.compile_setting` builds their unitaries. Each
setting runs three sub-runs, each transferring one basis state to the dark
state |3>. The 21 sub-runs are a plan of `simulate.SubExperiment` singles
whose chain names the detected slot, so `simulate.run_roster` draws them as
it draws every count, one draw per (seed, state, sub-run) on its own keyed
stream "seed/label/single:0k:Tn", and the solve reads the plan's cached
effects (`simulate.plan_effects`), the very ones the draw read. A dark
effect is r_b*I + vis*P, so least squares on the raw frequencies against
that map is the readout correction, unclipped. The trace is exact: rho =
|3><3| + sum_k x_k G_k over eight traceless generators, whose map is checked
for rank 8. A negative eigenvalue sends the estimate to the nearest density
matrix (Smolin, Gambetta & Smith, PRL 108, 070502 (2012)).

`run_tomography` is the one entry point: it draws a whole roster and
reconstructs it in one stacked pass. Each state keeps its own least-squares
solve and its own projection; the basis sum, the eigendecomposition and the
fidelities run on the stack in operations whose result for one state has
the bits of a one-state call, so a state's result does not depend on the
rest of the roster.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .pulses import MeasurementSetting, Pulse
from .simulate import (DARK, NoiseModel, StateSpec, SubExperiment, plan_effects,
                       readout_rates, run_roster)


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


def _subruns(settings: list[MeasurementSetting], shots: int) -> list[SubExperiment]:
    """The sub-runs as a plan, three per setting in settings order: sub-run k
    swaps basis state k onto |3>, the slot its chain names."""
    return [SubExperiment(s.id, (slot,), shots) for s in settings for slot in (1, 2, 3)]


@functools.lru_cache(maxsize=8)
def _checked_response(settings: tuple[MeasurementSetting, ...],
                      rates: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """Read-only map from the 8 traceless parameters to the sub-runs' dark
    probabilities under `rates`, checked for rank 8 at a tolerance relative
    to its scale (it scales with the visibility), and the offset column, the
    dark probabilities of |3><3|, read off the planes the sub-runs are drawn from."""
    effs = plan_effects(_subruns(settings, 1), settings, rates)  # any shot count
    re, im = effs.re[:, ::2], effs.im[:, ::2]  # each sub-run's D, not its B
    # Tr(G E) = sum_ij Re(G_ij) Re(E_ij) + Im(G_ij) Im(E_ij) for Hermitian
    # G and E, the form in which a law reads the planes.
    flat = _BASIS8.reshape(8, 9).T
    a = re.T @ flat.real + im.T @ flat.imag
    if np.linalg.matrix_rank(a) < 8:
        raise ValueError("response map is rank-deficient; extend the settings")
    a.flags.writeable = False
    return a, re[8]  # element (3, 3) of each dark effect


def tomography_settings() -> list[MeasurementSetting]:
    """Default informationally complete set, pulse lists chronological; a
    run asserts rank 8, it does not assume it."""
    half = math.pi / 2
    r1, r2 = (lambda phi: Pulse(1, half, phi)), (lambda phi: Pulse(2, half, phi))
    sequences = [(), (r1(0.0),), (r1(half),), (r2(0.0),), (r2(half),),
                 (r2(0.0), r1(0.0)), (r2(0.0), r1(half))]
    return [MeasurementSetting(f"T{k}", {}, seq)
            for k, seq in enumerate(sequences, start=1)]


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
    w = np.array([linalg.nearest_spectrum(mu) for mu in w.tolist()])
    rho = (u * w[:, None, :]) @ linalg.adjoint(u)
    rho = (rho + linalg.adjoint(rho)) / 2
    return [ReconstructionResult(r, f, res, proj) for r, f, res, proj
            in zip(rho, linalg.fidelities(rho, targets), residuals,
                   projected.tolist())]


def run_tomography(roster: list[StateSpec], settings: list[MeasurementSetting],
                   noise: NoiseModel, shots: int,
                   master_seed: int) -> list[ReconstructionResult]:
    """Simulated tomography of every state of `roster`: its sub-runs drawn by
    `simulate.run_roster` on the streams of (seed, state, sub-run),
    reconstructed in one stacked pass and compared with the state's target
    `rho`. A state's result does not depend on the rest of the roster: it
    equals, field for field, the result of a roster of that state alone."""
    tables = run_roster(roster, _subruns(settings, shots), settings, noise, master_seed)
    # Python division rounds n / shots once, whatever the size of shots.
    q = np.array([[t.counts["D"] / shots for t in ts] for ts in tables.values()])
    return _reconstruct(q, settings, readout_rates(noise), [s.rho for s in roster])


def format_density_matrix(rho: np.ndarray) -> str:
    """3x3 complex entries as real/imag pairs with 12 significant digits."""
    lines = []
    for r in range(3):
        cells = [f"{rho[r, c].real:+.12g}{rho[r, c].imag:+.12g}j" for c in range(3)]
        lines.append("  ".join(cells))
    return "\n".join(lines) + "\n"
