"""The three benchmark workloads: their inputs, operations and output checks.

Each workload is split into passes of fixed work. A pass is a list of
operation inputs; `run` performs one operation through the package's public
entry points and `check` returns the problems found in its output (an empty
list means the operation succeeded). Inputs depend only on the seed given to
the constructor and the pass index.

Functions of the package are always called through their module attribute
(`cli.main`, `simulate.run_roster`) so that the span wrappers of a traced run
see the calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
import shutil
from pathlib import Path

from qutrit_ks import analysis, cli, hv, model, pulses, simulate

# Expected outputs, stated independently of the package's own constants.
QUANTUM_CHI13 = 83 / 3
QUANTUM_CHI4 = 4 / 3
CLASSICAL_CHI13 = 25
CHI13_MAXIMIZERS = 140
CLASSICAL_CHI4 = 1
CHI4_ADMISSIBLE = 24
ASSIGNMENTS = 2 ** 13
# Corrected estimates must lie within this many stderr of the quantum value.
# Generous on purpose: the known low bias of corrected chi13 under flip noise
# (about -0.7 sigma) is reported as a pull statistic, not hidden by the check.
PULL_LIMIT = 6.0
MIN_FIDELITY = 0.98

SEED_STRIDE = 10_000  # pass p of seed s uses master seed s * SEED_STRIDE + p

_BOUND13 = re.compile(r"classical bound chi13 = 25: max (-?\d+), (\d+) maximizers")
_BOUND4 = re.compile(r"classical bound chi4 = 1: max (-?\d+), (\d+) admissible")


def _quiet_main(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _estimate_problems(label: str, chi13, chi4) -> list[str]:
    problems = []
    for name, est, truth in (("chi13", chi13, QUANTUM_CHI13),
                             ("chi4", chi4, QUANTUM_CHI4)):
        if not est.stderr > 0.0:
            problems.append(f"{label}: {name} stderr {est.stderr} not positive")
        elif abs(est.value - truth) > PULL_LIMIT * est.stderr:
            problems.append(f"{label}: {name} = {est.value:.4f} +- "
                            f"{est.stderr:.4f} is not within {PULL_LIMIT} "
                            f"stderr of {truth:.4f}")
    return problems


class Workload:
    name = ""
    min_passes = 1  # passes an untraced run makes even past its time budget

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        self.reset_stats()

    def reset_stats(self) -> None:
        self.pulls: dict[str, list[float]] = {}
        self.bytes_written = 0

    def master_seed(self, pass_index: int) -> int:
        return self.seed * SEED_STRIDE + pass_index

    def warmup_inputs(self) -> list:
        return self.pass_inputs(0)[:1]

    def pass_inputs(self, pass_index: int) -> list:
        raise NotImplementedError

    def run(self, op):
        raise NotImplementedError

    def check(self, op, output) -> list[str]:
        raise NotImplementedError

    def fingerprint(self, output) -> str:
        """Digest of an output; a traced pass must reproduce it exactly."""
        raise NotImplementedError

    def release(self, output) -> None:
        """Drop what an output holds on disk once it has been checked."""

    def run_problems(self) -> list[str] | None:
        """Problems found by a check made once per run, outside the timed
        passes; None when the workload has no such check."""
        return None


class Verify(Workload):
    """Repeated `qutrit-ks verify` suites through `cli.main`."""

    name = "verify"
    suites_per_pass = 10

    def pass_inputs(self, pass_index):
        return [("verify",)] * self.suites_per_pass

    def run(self, op):
        return _quiet_main(list(op))

    def check(self, op, output):
        code, text = output
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        if "verification PASSED" not in text:
            problems.append("report lacks 'verification PASSED'")
        m13, m4 = _BOUND13.search(text), _BOUND4.search(text)
        if not m13 or (int(m13[1]), int(m13[2])) != (CLASSICAL_CHI13,
                                                     CHI13_MAXIMIZERS):
            problems.append(f"chi13 bound line wrong: {m13 and m13[0]}")
        if not m4 or (int(m4[1]), int(m4[2])) != (CLASSICAL_CHI4,
                                                  CHI4_ADMISSIBLE):
            problems.append(f"chi4 bound line wrong: {m4 and m4[0]}")
        return problems

    def fingerprint(self, output):
        return hashlib.sha256(f"{output[0]}\n{output[1]}".encode()).hexdigest()

    def run_problems(self):
        """The report does not print how many assignments were enumerated;
        check that once per run on the returned reports."""
        m = model.build_model()
        r13, r4 = hv.max_chi13_noncontextual(m), hv.max_chi4_constrained(m)
        problems = []
        if sum(r13.histogram.values()) != ASSIGNMENTS:
            problems.append(f"chi13 enumerated {sum(r13.histogram.values())} "
                            f"assignments, expected {ASSIGNMENTS}")
        if (r4.maximum, r4.admissible_count) != (CLASSICAL_CHI4, CHI4_ADMISSIBLE):
            problems.append(f"chi4 report {r4.maximum}, {r4.admissible_count}")
        return problems


class Roster(Workload):
    """One full-roster `qutrit-ks simulate --tomography` run at 10^6 shots."""

    name = "roster-1e6"
    shots = 1_000_000
    # One roster takes about 22 s, longer than a spell of steady machine
    # speed; two per run halve the effect of one slow spell.
    min_passes = 2
    warmup_shots = 10_000

    def pass_inputs(self, pass_index):
        return [(self.master_seed(pass_index), self.shots)]

    def warmup_inputs(self):
        return [(self.master_seed(0), self.warmup_shots)]

    def run(self, op):
        seed, shots = op
        out = self.scratch / f"{self.name}-{seed}-{shots}"
        code, _ = _quiet_main(["simulate", "--tomography", "--noise", "paper",
                               "--shots", str(shots), "--seed", str(seed),
                               "--out-dir", str(out)])
        return code, out

    def check(self, op, output):
        _, shots = op
        code, out = output
        if code != 0:
            return [f"exit code {code}"]
        problems = []
        self.bytes_written += sum(f.stat().st_size for f in out.iterdir())
        totals: dict[tuple[str, str], int] = {}
        for row in (out / "counts.csv").read_text().splitlines()[1:]:
            state, _, chain, _, count, _ = row.split(",")
            totals[(state, chain)] = totals.get((state, chain), 0) + int(count)
        if len(totals) != 12 * 37:
            problems.append(f"{len(totals)} count tables, expected {12 * 37}")
        problems += [f"{key}: counts sum to {n}, expected {shots}"
                     for key, n in totals.items() if n != shots]
        rows = (out / "results.csv").read_text().splitlines()
        header = rows[0].split(",")
        if len(rows) != 13:
            problems.append(f"{len(rows) - 1} result rows, expected 12")
        for row in rows[1:]:
            rec = dict(zip(header, row.split(",")))
            label = rec["state"]
            chi13 = analysis.Estimate(float(rec["chi13"]), float(rec["chi13_err"]))
            chi4 = analysis.Estimate(float(rec["chi4"]), float(rec["chi4_err"]))
            problems += _estimate_problems(label, chi13, chi4)
            if not chi13.value > CLASSICAL_CHI13:
                problems.append(f"{label}: chi13 = {chi13.value} does not "
                                f"exceed {CLASSICAL_CHI13}")
            if not float(rec["fidelity"]) >= MIN_FIDELITY:
                problems.append(f"{label}: tomography fidelity "
                                f"{rec['fidelity']} < {MIN_FIDELITY}")
            if chi13.stderr > 0.0:
                self.pulls.setdefault("flip", []).append(
                    (chi13.value - QUANTUM_CHI13) / chi13.stderr)
        return problems

    def fingerprint(self, output):
        _, out = output
        digest = hashlib.sha256()
        for name in ("counts.csv", "results.csv"):
            path = out / name
            digest.update(path.read_bytes() if path.exists() else b"missing")
        return digest.hexdigest()

    def release(self, output):
        shutil.rmtree(output[1], ignore_errors=True)


NOISE_MODES = ("ideal", "flip", "photon-count")


class CalibrationSweep(Workload):
    """Per (seed, noise, state): the 37-sub-experiment plan at 2000 shots,
    then analysis as `cli.run_simulation` does it."""

    name = "calibration-sweep"
    shots = 2000

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        self.model = model.build_model()
        self.settings = pulses.settings_table()
        self.plan = simulate.build_plan(self.model, self.settings, self.shots)
        self.roster = simulate.default_state_roster()
        self.noise = {
            "ideal": simulate.NoiseModel.ideal(),
            "flip": simulate.NoiseModel.paper(),
            "photon-count": simulate.NoiseModel(mode="photon-count"),
        }
        flip = self.noise["flip"]
        self.confusion = {"flip": analysis.ConfusionModel(
            flip.eps_dark_to_bright, flip.eps_bright_to_dark)}

    def pass_inputs(self, pass_index):
        seed = self.master_seed(pass_index)
        return [(seed, mode, state) for mode in NOISE_MODES
                for state in self.roster]

    def warmup_inputs(self):
        # One operation per noise mode, so every readout path has run once.
        ops = self.pass_inputs(0)
        return ops[::len(self.roster)]

    def run(self, op):
        seed, mode, state = op
        tables = simulate.run_roster([state], self.plan, self.settings,
                                     self.noise[mode], seed)[state.label]
        est = analysis.estimates_from_counts(tables, self.confusion.get(mode))
        chi13 = analysis.assemble_chi13(est.singles, est.pairs, self.model)
        analysis.assemble_chi13(est.singles_raw, est.pairs_raw, self.model)
        chi4 = analysis.assemble_chi4(est.singles)
        analysis.assemble_chi4(est.singles_raw)
        return tables, chi13, chi4

    def check(self, op, output):
        seed, mode, state = op
        tables, chi13, chi4 = output
        label = f"{mode}/{state.label}/{seed}"
        problems = []
        if len(tables) != len(self.plan):
            problems.append(f"{label}: {len(tables)} tables, "
                            f"expected {len(self.plan)}")
        for t in tables:
            n = sum(t.counts.values())
            if n != self.shots:
                problems.append(f"{label} {t.subexperiment.key}: counts sum "
                                f"to {n}, expected {self.shots}")
            if mode == "ideal" and t.counts.get("DD", 0) != 0:
                problems.append(f"{label} {t.subexperiment.key}: DD = "
                                f"{t.counts['DD']} under ideal noise")
        problems += _estimate_problems(label, chi13, chi4)
        if chi13.stderr > 0.0:
            self.pulls.setdefault(mode, []).append(
                (chi13.value - QUANTUM_CHI13) / chi13.stderr)
        return problems

    def fingerprint(self, output):
        tables, chi13, chi4 = output
        text = ";".join(f"{t.subexperiment.key}:{sorted(t.counts.items())}"
                        for t in tables)
        text += f"|{chi13.value!r},{chi13.stderr!r},{chi4.value!r},{chi4.stderr!r}"
        return hashlib.sha256(text.encode()).hexdigest()


WORKLOADS = {w.name: w for w in (Verify, Roster, CalibrationSweep)}
