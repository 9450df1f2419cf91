"""Qutrit state tomography: rotation settings, least squares on the
noise-folded map, projection to the nearest state.

The measurement set is seven `pulses.MeasurementSetting`s that map no ray:
five single-tone quarter rotations, which alone are rank-deficient, and two
two-pulse sequences; `pulses.compile_setting` builds their unitaries. Each
setting runs three sub-runs, each transferring one basis state to the dark
state |3>. The 21 sub-runs are a plan of `simulate.SubExperiment` singles
whose chain names the detected slot, so `simulate.draw_roster` draws them
as it draws every count, in one draw per state on the keyed stream of
(seed, state, plan), which the Kochen-Specker plan never shares, into the
roster's (S, n, 3) count stack, whose D column holds each sub-run's dark
count; the solve forms its map from the `simulate.PlanEffects` that draw
returns, the very planes it read. A dark effect is r_b*I + vis*P, so least
squares on the raw frequencies against that map is the readout correction,
unclipped. The trace is exact: rho = |3><3| + sum_k x_k G_k over eight
traceless generators, whose map is checked for rank 8. A negative
eigenvalue sends the estimate to the nearest density matrix (Smolin,
Gambetta & Smith, PRL 108, 070502 (2012)).

`run_tomography` is the one entry point: it draws a whole roster and
reconstructs it in one stacked pass. The map's one SVD solves every state,
one matrix-vector product each, and each state keeps its own projection;
the basis sum, the eigendecomposition and the fidelities run on the stack
in operations whose result for one state has the bits of a one-state call,
so a state's result does not depend on the rest of the roster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .pulses import MeasurementSetting, Pulse
from .simulate import DARK, NoiseModel, PlanEffects, StateSpec, SubExperiment, draw_roster


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


def _checked_response(effs: PlanEffects) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map from the 8 traceless parameters to the sub-runs' dark
    probabilities under the sub-run planes `effs`, checked for rank 8 at a
    tolerance relative to its scale (it scales with the visibility), the
    offset column, the dark probabilities of |3><3|, and the map's
    pseudo-inverse V diag(1/s) U^T from its one SVD."""
    re, im = effs.re[:, 1::3], effs.im[:, 1::3]  # each sub-run's D: pad, D, B
    # Tr(G E) = sum_ij Re(G_ij) Re(E_ij) + Im(G_ij) Im(E_ij) for Hermitian
    # G and E, the form in which a law reads the planes.
    flat = _BASIS8.reshape(8, 9).T
    a = re.T @ flat.real + im.T @ flat.imag
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    if (s > s.max() * max(a.shape) * np.finfo(float).eps).sum() < 8:  # `matrix_rank`'s test
        raise ValueError("response map is rank-deficient; extend the settings")
    return a, re[8], (vt.T / s) @ u.T  # re[8]: element (3, 3) of each dark effect


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


def _reconstruct(q: np.ndarray, effs: PlanEffects,
                 targets: list[np.ndarray]) -> list[ReconstructionResult]:
    """Least squares of each row of the stack `q` (raw sub-run dark
    frequencies in plan order) against the sub-run planes `effs` they were
    drawn from, the nearest density matrix, and the fidelity to the target
    at the same index. `residual` is the norm of the fit's misses, in frequency."""
    a, offset, pinv = _checked_response(effs)
    # Stacked `matmul`s: one matrix-vector product (and one dot) per state,
    # so a state's x has the bits of a one-state call, as one product with
    # the whole stack need not.
    b = (q - offset)[:, :, None]
    x = pinv @ b
    miss = a @ x - b
    residuals = np.sqrt(np.swapaxes(miss, 1, 2) @ miss).ravel().tolist()
    x = x[:, :, 0]
    # Real x_k times Hermitian generators, added one at a time from 0: exactly
    # Hermitian, as `hermitian_eig` assumes, and the signs of zeros are fixed.
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
    `simulate.draw_roster` on the stream of (seed, state, plan), their dark
    counts divided by `shots` and solved against the planes that draw read,
    reconstructed in one stacked pass and compared with the state's target
    `rho`. A state's result does not depend on the rest of the roster: it
    equals, field for field, the result of a roster of that state alone."""
    effs, _, counts = draw_roster(roster, _subruns(settings, shots), settings, noise,
                                  master_seed)
    dark = counts[:, :, 1]  # each sub-run's D
    if shots > 2 ** 53:  # Python division rounds n / shots once; numpy's rounds n first
        dark = dark.astype(object)
    return _reconstruct((dark / shots).astype(float, copy=False), effs,
                        [s.rho for s in roster])


def format_density_matrix(rho: np.ndarray) -> str:
    """3x3 complex entries as real/imag pairs with 12 significant digits."""
    lines = []
    for r in range(3):
        cells = [f"{rho[r, c].real:+.12g}{rho[r, c].imag:+.12g}j" for c in range(3)]
        lines.append("  ".join(cells))
    return "\n".join(lines) + "\n"
