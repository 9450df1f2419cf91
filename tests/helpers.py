"""Shared test inputs."""

import numpy as np

from qutrit_ks import linalg, tomography


def random_density_matrix(rng: np.random.Generator) -> np.ndarray:
    """A full-rank mixed state: A A† / Tr(A A†) for a complex Gaussian A."""
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    m = a @ linalg.adjoint(a)
    return m / np.trace(m).real


def exact_probabilities(rho: np.ndarray,
                        settings: list) -> dict[str, np.ndarray]:
    """Noise-free dark probability of every tomography sub-run, three per
    setting id: the tables `tomography.reconstruct` inverts exactly."""
    p = tomography._dark_probabilities(linalg.validate_density_matrix(rho),
                                       settings, tomography.IDEAL_RATES)
    return dict(zip((s.id for s in settings), p.reshape(-1, 3)))
