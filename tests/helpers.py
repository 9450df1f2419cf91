"""Shared test inputs."""

import numpy as np

from qutrit_ks import linalg


def random_density_matrix(rng: np.random.Generator) -> np.ndarray:
    """A full-rank mixed state: A A† / Tr(A A†) for a complex Gaussian A."""
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    m = a @ linalg.adjoint(a)
    return m / np.trace(m).real
