"""Shared test inputs."""

import numpy as np

from qutrit_ks import linalg, tomography


def random_density_matrix(rng: np.random.Generator) -> np.ndarray:
    """A full-rank mixed state: A A† / Tr(A A†) for a complex Gaussian A."""
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    m = a @ linalg.adjoint(a)
    return m / np.trace(m).real


def exact_probabilities(rho: np.ndarray, settings: list) -> np.ndarray:
    """Noise-free dark probability of every tomography sub-run, three per
    setting in settings order: the row `tomography._reconstruct` inverts
    exactly."""
    dark = tomography._subrun_dark(tuple(settings), tomography.IDEAL_RATES)
    p = np.einsum("ij,kji->k", linalg.validate_density_matrix(rho), dark).real
    return np.clip(p, 0.0, 1.0)
