"""Shared test inputs."""

import hashlib
from fractions import Fraction

import numpy as np

from qutrit_ks import linalg, simulate, tomography
from qutrit_ks.model import PM1, Inequality, operator_numerator

# Coefficients beyond int64: exact arithmetic must carry them, and int64
# enumeration must refuse them.
HUGE = Inequality("huge", PM1, {(1,): 10**30, (10,): -(10**30), (1, 4): 10**30,
                                (2, 5, 8): -(10**30), (3, 6, 9): 7},
                  classical_bound=0, quantum_value=Fraction(0))


def exact_operator(ineq: Inequality) -> np.ndarray:
    """The inequality's quantum operator as a 3x3 array of `Fraction`s."""
    numerator, denominator = operator_numerator(ineq)
    return numerator * Fraction(1, denominator)


def random_density_matrix(rng: np.random.Generator) -> np.ndarray:
    """A full-rank mixed state: A A† / Tr(A A†) for a complex Gaussian A."""
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    m = a @ linalg.adjoint(a)
    return m / np.trace(m).real


IDEAL_RATES = simulate.readout_rates(simulate.NoiseModel.ideal())


def law_rows(roster, plan, settings, noise) -> tuple[tuple, list[list[list[float]]]]:
    """Each plan entry's readout symbols and each state's law, formed as
    `simulate.draw_roster` forms them, from the plan's cached effects and the
    prepared rho: three probabilities per entry in draw order, (0, P(D),
    P(B)) for a single, the layout of `analysis.frequencies`."""
    effs = simulate.plan_effects(plan, settings, simulate.readout_rates(noise))
    return effs.symbols, [simulate._laws(effs, simulate.prepare(state, noise)).tolist()
                          for state in roster]


def subrun_plan_effects(settings, rates=IDEAL_RATES):
    """The cached `simulate.PlanEffects` of the tomography sub-run plan of
    `settings` under `rates`: the map its counts are drawn from and solved against."""
    return simulate.plan_effects(tomography._subruns(settings, 1), settings, rates)


def exact_probabilities(rho: np.ndarray, settings: list) -> np.ndarray:
    """Noise-free dark probability of every tomography sub-run, three per
    setting in settings order: the law each sub-run is drawn from, the row
    `tomography._reconstruct` inverts exactly under `IDEAL_RATES`."""
    state = simulate.StateSpec("exact", rho)
    _, [row] = law_rows([state], tomography._subruns(settings, 1), settings,
                        simulate.NoiseModel.ideal())
    return np.array([law[1] for law in row])  # each single's pad, D, B


def stream_name(master_seed: int, label: str, plan) -> str:
    """The name of a state's stream for a plan: "seed/label/plan", "plan"
    being the first 16 hex digits of sha256 of the entries' keys, joined by
    commas."""
    keys = ",".join(sub.key for sub in plan)
    return f"{master_seed}/{label}/{hashlib.sha256(keys.encode()).hexdigest()[:16]}"


def derive_rng(name: str) -> np.random.Generator:
    """A fresh generator at the start of the keyed stream of `name`, the
    stream a state's counts are drawn from: Philox4x64 at counter 0 under
    the first 16 bytes of sha256(name), as two little-endian uint64 words."""
    key = np.frombuffer(hashlib.sha256(name.encode()).digest()[:16], "<u8")
    return np.random.Generator(np.random.Philox(key=key))


def expected_laws(roster, plan, settings, noise) -> dict[str, list[dict[str, float]]]:
    """Per-shot outcome law of every (state, plan entry), keyed by state
    label, then by the count-table symbols in draw order (D/B for a single,
    B/DB/DD for a sequential pair): the law rows `simulate.draw_roster` draws
    from, as dicts, each single's leading 0 dropped."""
    symbols, laws = law_rows(roster, plan, settings, noise)
    return {state.label: [dict(zip(syms, law[-len(syms):]))
                          for syms, law in zip(symbols, state_laws)]
            for state, state_laws in zip(roster, laws)}


def effect_stack(plan_effects) -> np.ndarray:
    """The `(3n, 3, 3)` effects held in the planes of `simulate._plan_effects`,
    three per entry in draw order, each single's first a zero pad: the
    columns of a law and of the estimator's W."""
    return (plan_effects.re + 1j * plan_effects.im).T.reshape(-1, 3, 3)
