"""Qutrit state tomography: rotation settings, linear inversion, projection.

The measurement set is seven `pulses.MeasurementSetting`s that map no ray:
five single-tone quarter rotations, which alone are rank-deficient, and two
two-pulse sequences; `pulses.compile_setting` builds their unitaries, and
the stacked response map over the 9 real Hermitian degrees of freedom is
checked for rank 9. Probabilities are measured the way the experiment can
only measure them: three sub-runs per setting, each transferring one basis
state to the dark state |3>: one detection of `simulate.effects`, under
ideal rates for the response map. Settings hash by content, so a process
builds the sub-run effects of each distinct (settings, readout rates) once
(`_subrun_dark`), and every state of a run reads one stack.

`run_tomography` is the one entry point: it simulates and reconstructs a
whole roster in one stacked pass (`_frequencies`, then `_reconstruct`).
Each state keeps what would make its result depend on the others if shared:
its own stream `simulate.derive_rng(seed, label, "tomography")`, its own
contraction with the sub-run stack, one binomial draw of all its sub-runs
and its own least-squares solve. The detection-error correction, the basis
sum, the projection and the fidelities run on the stack, in operations whose
result for one state has the bits of a one-state call, so a state's
reconstruction does not depend on the rest of the roster.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .analysis import confusion_for
from .pulses import MeasurementSetting, Pulse, compile_setting
from .simulate import (SWAP, NoiseModel, StateSpec, derive_rng, effects, prepare,
                       readout_rates)

RANK_TOL = 1e-9
# Weighted trace constraint keeps the unit-trace direction well determined.
TRACE_ROW = np.array([[1.0, 1.0, 1.0, 0, 0, 0, 0, 0, 0]])
IDEAL_RATES = readout_rates(NoiseModel.ideal())


def _hermitian_basis() -> list[np.ndarray]:
    """Nine real-coefficient generators of the Hermitian 3x3 matrices."""
    basis = []
    for k in range(3):
        m = np.zeros((3, 3), dtype=complex)
        m[k, k] = 1.0
        basis.append(m)
    for a in range(3):
        for b in range(a + 1, 3):
            re = np.zeros((3, 3), dtype=complex)
            re[a, b] = re[b, a] = 1.0
            basis.append(re)
            im = np.zeros((3, 3), dtype=complex)
            im[a, b] = -1j
            im[b, a] = 1j
            basis.append(im)
    return basis


_BASIS9 = np.array(_hermitian_basis())


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


@functools.lru_cache(maxsize=4)
def _checked_response(settings: tuple[MeasurementSetting, ...]) -> np.ndarray:
    """Read-only map from the 9 Hermitian parameters to the ideal dark
    probabilities of the sub-runs, checked for rank 9; computed once per
    distinct settings content, so many reconstructions pay for it once."""
    a = np.einsum("gij,kji->kg", _BASIS9, _subrun_dark(settings, IDEAL_RATES)).real
    if np.linalg.matrix_rank(a, tol=RANK_TOL) < 9:
        raise ValueError("response map is rank-deficient; extend the settings")
    a.flags.writeable = False
    return a


def tomography_settings() -> list[MeasurementSetting]:
    """Default informationally complete set, pulse lists chronological;
    rank 9 is asserted, not assumed."""
    half = math.pi / 2
    r1, r2 = (lambda phi: Pulse(1, half, phi)), (lambda phi: Pulse(2, half, phi))
    sequences = [(), (r1(0.0),), (r1(half),), (r2(0.0),), (r2(half),),
                 (r2(0.0), r1(0.0)), (r2(0.0), r1(half))]
    settings = [MeasurementSetting(f"T{k}", {}, seq)
                for k, seq in enumerate(sequences, start=1)]
    _checked_response(tuple(settings))
    return settings


def _frequencies(states: list[StateSpec], settings: list[MeasurementSetting],
                 noise: NoiseModel, shots: int,
                 rngs: list[np.random.Generator]) -> np.ndarray:
    """Corrected dark frequencies, one row per state, one column per sub-run.

    Each state draws the dark counts of all its sub-runs in one binomial call
    on its own generator, which consumes the stream as one draw per sub-run
    would; `analysis.confusion_for` of the noise model corrects the stack.
    """
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
    q = np.array([[n / shots for n in row] for row in counts])
    confusion = confusion_for(noise)
    return np.clip((q - confusion.eps_bright_to_dark) / confusion.visibility,
                   0.0, 1.0)


@dataclass
class ReconstructionResult:
    rho: np.ndarray
    fidelity_to_target: float
    residual: float
    projected: bool


def _reconstruct(b: np.ndarray, settings: list[MeasurementSetting],
                 targets: list[np.ndarray]) -> list[ReconstructionResult]:
    """Least-squares linear inversion of each row of the stack `b` (sub-run
    frequencies in settings order), projection to the physical set
    (eigenvalue clipping and trace renormalization), and the fidelity to the
    target at the same index."""
    a = _checked_response(tuple(settings))
    a_full = np.vstack([a, TRACE_ROW])
    # One solve per state: one solve with several right-hand sides gives
    # most solutions other last bits than solving each alone.
    x = np.empty((len(b), 9))
    residuals = []
    for k, row in enumerate(b):
        x[k] = np.linalg.lstsq(a_full, np.append(row, 1.0), rcond=None)[0]
        residuals.append(float(np.linalg.norm(a @ x[k] - row)))
    # Generators added one at a time from 0, which fixes the signs of zeros.
    rho = sum(x[:, k, None, None] * g for k, g in enumerate(_BASIS9))

    w, u = linalg.hermitian_eig(rho)
    projected = w.min(axis=-1) < 0.0
    w = np.clip(w, 0.0, None)
    w = w / w.sum(axis=-1, keepdims=True)
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
    return _reconstruct(freqs, settings, [state.rho for state in roster])


def format_density_matrix(rho: np.ndarray) -> str:
    """3x3 complex entries as real/imag pairs with 12 significant digits."""
    lines = []
    for r in range(3):
        cells = [f"{rho[r, c].real:+.12g}{rho[r, c].imag:+.12g}j" for c in range(3)]
        lines.append("  ".join(cells))
    return "\n".join(lines) + "\n"
