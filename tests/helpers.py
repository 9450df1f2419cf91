"""Shared test inputs."""

from fractions import Fraction

import numpy as np

from qutrit_ks import linalg, simulate, tomography
from qutrit_ks.model import PM1, Inequality

# Coefficients beyond int64: exact arithmetic must carry them, and int64
# enumeration must refuse them.
HUGE = Inequality("huge", PM1, {(1,): 10**30, (10,): -(10**30), (1, 4): 10**30,
                                (2, 5, 8): -(10**30), (3, 6, 9): 7},
                  classical_bound=0, quantum_value=Fraction(0))


def random_density_matrix(rng: np.random.Generator) -> np.ndarray:
    """A full-rank mixed state: A A† / Tr(A A†) for a complex Gaussian A."""
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    m = a @ linalg.adjoint(a)
    return m / np.trace(m).real


IDEAL_RATES = simulate.readout_rates(simulate.NoiseModel.ideal())


def exact_probabilities(rho: np.ndarray, settings: list) -> np.ndarray:
    """Noise-free dark probability of every tomography sub-run, three per
    setting in settings order: the law each sub-run is drawn from, the row
    `tomography._reconstruct` inverts exactly under `IDEAL_RATES`."""
    state = simulate.StateSpec("exact", linalg.validate_density_matrix(rho))
    _, [row] = simulate._law_rows([state], tomography._subruns(settings, 1), settings,
                                  simulate.NoiseModel.ideal())
    return np.array([law[0] for law in row])


def derive_rng(master_seed: int, *parts: str) -> np.random.Generator:
    """A fresh generator at the start of the keyed stream of the name
    "seed/part/...", the stream every count of that key is drawn from."""
    stream = simulate._KeyedStream()
    stream.rekey("/".join([str(master_seed), *parts]))
    return stream.rng


def expected_laws(roster, plan, settings, noise) -> dict[str, list[dict[str, float]]]:
    """Per-shot outcome law of every (state, plan entry), keyed by state
    label, then by the count-table symbols in draw order (D/B for a single,
    B/DB/DD for a sequential pair): the law rows `simulate.run_roster` draws
    from, as dicts."""
    symbols, laws = simulate._law_rows(roster, plan, settings, noise)
    return {state.label: [dict(zip(syms, law)) for syms, law in zip(symbols, state_laws)]
            for state, state_laws in zip(roster, laws)}


def effect_stack(plan_effects) -> np.ndarray:
    """The `(n, 3, 3)` effects held in the planes of `simulate._plan_effects`."""
    return (plan_effects.re + 1j * plan_effects.im).T.reshape(-1, 3, 3)
