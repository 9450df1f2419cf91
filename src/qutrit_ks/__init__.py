"""Simulator and verifier for state-independent qutrit contextuality tests."""

from .model import build_model
from .hv import max_chi4_constrained, max_chi13_noncontextual
from .pulses import settings_table, verify_all_settings
from .simulate import NoiseModel, build_plan, default_state_roster, draw_roster
from .analysis import estimate, frequencies, significance
from .tomography import run_tomography, tomography_settings

__version__ = "0.1.0"
