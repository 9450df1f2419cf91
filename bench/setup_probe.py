"""Set-up cost of a fresh interpreter: import qutrit_ks and build the model,
the settings table, the measurement plan and the tomography settings.

Prints the elapsed seconds, then the same scaled by the reference kernel
timed in this process just after (see reference.py). `bench/run.py` runs it
several times, each in a new process, and reports the median of the scaled
times as `setup_s`.
"""

import time

t0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import qutrit_ks  # noqa: E402

model = qutrit_ks.build_model()
settings = qutrit_ks.settings_table()
plan = qutrit_ks.build_plan(model, settings)
qutrit_ks.tomography_settings()
elapsed = time.perf_counter() - t0
if len(plan) != 37:
    sys.exit(f"plan has {len(plan)} sub-experiments, expected 37")
import reference  # noqa: E402

scaled = elapsed * reference.NOMINAL_S / reference.kernel_seconds()
print(repr(elapsed), repr(scaled))
