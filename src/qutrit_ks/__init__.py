"""Simulator and verifier for state-independent qutrit contextuality tests."""

from .model import build_model
from .hv import max_chi4_constrained, max_chi13_noncontextual
from .pulses import settings_table, verify_all_settings
from .simulate import (NoiseModel, build_plan, default_state_roster, expected_laws,
                       run_roster)
from .analysis import ConfusionModel, estimate, frequencies, significance
from .tomography import (reconstruct, run_tomography, simulate_tomography,
                         tomography_settings)

__version__ = "0.1.0"
