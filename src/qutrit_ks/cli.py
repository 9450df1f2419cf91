"""Command-line entry point: verify, compile, simulate, tomography, report.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import analysis, hv, linalg, pulses, simulate, tomography
from .model import CHI4, Inequality, KSModel, build_model, dump_model, exact_operator

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_IO = 3
MAX_SHOTS = 2 ** 63 - 1  # numpy draws counts as int64


@dataclass
class RunConfig:
    """One run of `simulate` or `tomography`; each field is one CLI flag
    and its default the flag's default."""

    master_seed: int = 0
    shots: int = 10_000
    noise: str = "paper"  # "ideal" | "paper" | "flip" | "photon-count"
    eps_dark_to_bright: float = simulate.NoiseModel.eps_dark_to_bright
    eps_bright_to_dark: float = simulate.NoiseModel.eps_bright_to_dark
    prep_depolarization: float = 0.0
    states: tuple[str, ...] = ()  # empty = full roster
    out_dir: str = "run"
    with_tomography: bool = False

    def __post_init__(self):
        self.states = tuple(self.states)
        if not 1 <= self.shots <= MAX_SHOTS:
            raise ValueError(f"shots must be at least 1 and at most {MAX_SHOTS}, "
                             f"got {self.shots}")


def _noise_from_config(cfg: RunConfig) -> simulate.NoiseModel:
    """The run's noise model; the "paper" preset is flip noise. Every preset
    validates the flip rates, and only flip mode reads them."""
    return simulate.NoiseModel(
        mode="flip" if cfg.noise == "paper" else cfg.noise,
        eps_dark_to_bright=cfg.eps_dark_to_bright,
        eps_bright_to_dark=cfg.eps_bright_to_dark,
        prep_depolarization=cfg.prep_depolarization)


def _select_roster(cfg: RunConfig) -> list[simulate.StateSpec]:
    roster = simulate.default_state_roster()
    if not cfg.states:
        return roster
    by_label = {s.label: s for s in roster}
    missing = [s for s in cfg.states if s not in by_label]
    if missing:
        raise ValueError(f"unknown state labels: {', '.join(missing)}")
    repeated = sorted({s for s in cfg.states if cfg.states.count(s) > 1})
    if repeated:
        raise ValueError(f"repeated state labels: {', '.join(repeated)}")
    return [by_label[s] for s in cfg.states]


def run_verification(report_lines: list[str]) -> bool:
    """Static checks: graph, operators, classical bounds, setting mappings."""
    ok = True

    def check(name: str, passed: bool, detail: str = ""):
        nonlocal ok
        ok = ok and passed
        status = "ok  " if passed else "FAIL"
        report_lines.append(f"[{status}] {name}" + (f": {detail}" if detail else ""))

    model = build_model()
    check("graph edges", len(model.edges) == 24, f"{len(model.edges)} edges")
    expected_tris = {(1, 2, 3), (1, 4, 7), (2, 5, 8), (3, 6, 9)}
    check("graph triangles", set(model.triangles) == expected_tris,
          f"{sorted(model.triangles)}")

    for ineq in model.inequalities:
        err = abs(exact_operator(ineq) - ineq.quantum_value * np.identity(3, int)).max()
        check(f"quantum {ineq.name} operator = ({ineq.quantum_value}) I",
              err == 0, f"exact, max entry error {err}")

    r13, r4 = hv.max_chi13_noncontextual(model), hv.max_chi4_constrained(model)
    for ineq, r, detail in ((model.chi13, r13, f"{r13.argmax_count} maximizers"),
                            (CHI4, r4, f"{r4.admissible_count} admissible assignments")):
        check(f"classical bound {ineq.name} = {ineq.classical_bound}",
              r.maximum == ineq.classical_bound, f"max {r.maximum}, {detail}")

    settings = pulses.settings_table()
    try:
        reports = pulses.verify_all_settings(settings)
        worst = max(d for r in reports for _, _, d in r.deficits)
        check("all 16 setting mappings", True, f"worst deficit {worst:.2e}")
    except ValueError as exc:
        check("all 16 setting mappings", False, str(exc))

    covered = pulses.covered_pairs(settings)
    check("settings cover all 24 edges", covered == set(model.edges))
    return ok


def cmd_verify(args) -> int:
    lines: list[str] = []
    ok = run_verification(lines)
    lines.append("verification " + ("PASSED" if ok else "FAILED"))
    text = "\n".join(lines) + "\n"
    files = {}
    if args.out:
        out = Path(args.out)
        files = {out: text, out.with_suffix(".model.txt"): dump_model(build_model())}
    return _emit(files, text, EXIT_OK if ok else EXIT_VERIFY)


def cmd_compile(args) -> int:
    table = {s.id: s for s in pulses.settings_table()}
    unknown = [i for i in args.settings if i not in table]
    if unknown:
        sys.stderr.write(f"unknown setting ids: {', '.join(unknown)}\n")
        return EXIT_CONFIG
    files = {Path(args.out_dir, f"{sid}.schedule"): pulses.format_schedule(table[sid])
             for sid in (args.settings or sorted(table))}
    return _emit(files, "".join(f"wrote {path}\n" for path in files))


@dataclass
class StateResult:
    label: str
    fidelity: float
    chi13_raw: analysis.Estimate
    chi13: analysis.Estimate
    chi4_raw: analysis.Estimate
    chi4: analysis.Estimate
    significance13: float
    significance4: float


def run_simulation(cfg: RunConfig, model: KSModel) -> tuple[dict, list[StateResult]]:
    """Execute the full plan for the configured roster; pure computation."""
    settings = pulses.settings_table()
    plan = simulate.build_plan(model, settings, cfg.shots)
    roster = _select_roster(cfg)
    noise = _noise_from_config(cfg)
    confusion = analysis.confusion_for(noise)
    tables = simulate.run_roster(roster, plan, settings, noise, cfg.master_seed)
    if cfg.with_tomography:
        fids = [res.fidelity_to_target for res in tomography.run_tomography(
            roster, tomography.tomography_settings(), noise, cfg.shots,
            cfg.master_seed)]
    else:
        fids = [linalg.fidelity(simulate.prepare(state, noise), state.rho)
                for state in roster]

    raw = analysis.ConfusionModel(0.0, 0.0)
    results = []
    for state, fid in zip(roster, fids):
        freqs = analysis.frequencies(tables[state.label])
        chi13_raw, chi13, chi4_raw, chi4 = (
            analysis.estimate(ineq, freqs, c)
            for ineq in (model.chi13, CHI4) for c in (raw, confusion))
        results.append(StateResult(
            state.label, fid, chi13_raw, chi13, chi4_raw, chi4,
            analysis.significance(chi13, model.chi13.classical_bound),
            analysis.significance(chi4, CHI4.classical_bound)))
    return tables, results


def results_csv(results: list[StateResult]) -> str:
    lines = ["state,fidelity,chi13_raw,chi13_raw_err,chi13,chi13_err,"
             "chi4_raw,chi4_raw_err,chi4,chi4_err,sigma13,sigma4"]
    for r in results:
        lines.append(
            f"{r.label},{r.fidelity:.6f},"
            f"{r.chi13_raw.value:.6f},{r.chi13_raw.stderr:.6f},"
            f"{r.chi13.value:.6f},{r.chi13.stderr:.6f},"
            f"{r.chi4_raw.value:.6f},{r.chi4_raw.stderr:.6f},"
            f"{r.chi4.value:.6f},{r.chi4.stderr:.6f},"
            f"{r.significance13:.3f},{r.significance4:.3f}")
    return "\n".join(lines) + "\n"


def results_text(results: list[StateResult],
                 inequalities: tuple[Inequality, ...]) -> str:
    head = (f"{'state':<8}{'fid':>8}{'chi13 raw':>14}{'chi13 corr':>16}"
            f"{'chi4 corr':>14}{'sig13':>8}{'sig4':>8}")
    lines = [head, "-" * len(head)]
    for r in results:
        lines.append(
            f"{r.label:<8}{r.fidelity:>8.4f}"
            f"{r.chi13_raw.value:>14.3f}"
            f"{r.chi13.value:>10.3f} ({r.chi13.stderr:.3f})"
            f"{r.chi4.value:>9.4f} ({r.chi4.stderr:.4f})"
            f"{r.significance13:>8.1f}{r.significance4:>8.1f}")
    lines.append("-" * len(head))
    bounds = ", ".join(f"{w.name} <= {w.classical_bound}" for w in inequalities)
    values = ", ".join(f"{float(w.quantum_value):.4f}" for w in inequalities)
    lines.append(f"classical bounds: {bounds}; quantum values: {values}")
    return "\n".join(lines) + "\n"


def results_from_csv(text: str) -> list[StateResult]:
    """Parse `results_csv` output, reading each column by its header name."""
    def est(row, col):
        return analysis.Estimate(float(row[col]), float(row[col + "_err"]))
    return [StateResult(row["state"], float(row["fidelity"]),
                        est(row, "chi13_raw"), est(row, "chi13"),
                        est(row, "chi4_raw"), est(row, "chi4"),
                        float(row["sigma13"]), float(row["sigma4"]))
            for row in csv.DictReader(io.StringIO(text))]


def plot_data(results: list[StateResult],
              inequalities: tuple[Inequality, ...]) -> str:
    """Columnar plot-ready data with the inequalities' reference lines."""
    lines = ["# column data: state chi13 chi13_err chi4 chi4_err"]
    for r in results:
        lines.append(f"{r.label} {r.chi13.value:.6f} {r.chi13.stderr:.6f} "
                     f"{r.chi4.value:.6f} {r.chi4.stderr:.6f}")
    for w in inequalities:
        lines.append(f"# reference classical_{w.name} {w.classical_bound}")
        lines.append(f"# reference quantum_{w.name} {float(w.quantum_value):.9f}")
    return "\n".join(lines) + "\n"


def _emit(files: dict[Path, str], stdout: str, code: int = EXIT_OK) -> int:
    """The one output path: write every file (creating its directory), then
    print `stdout` and return `code`; EXIT_IO if a file cannot be written."""
    try:
        for path, text in files.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
    except OSError as exc:
        sys.stderr.write(f"I/O error: {exc}\n")
        return EXIT_IO
    sys.stdout.write(stdout)
    return code


def _config(args) -> RunConfig:
    """The run the parsed run flags of `simulate` or `tomography` describe."""
    return RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)})


def _manifest(cfg: RunConfig, extra: dict) -> str:
    return json.dumps({"config": asdict(cfg), **extra}, indent=2, sort_keys=True) + "\n"


def cmd_simulate(args) -> int:
    try:
        cfg, model = _config(args), build_model()
        tables, results = run_simulation(cfg, model)
    except ValueError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    out = Path(cfg.out_dir)
    text = results_text(results, model.inequalities)
    plan_size = len(next(iter(tables.values())))
    return _emit({
        out / "counts.csv": simulate.counts_to_csv(tables),
        out / "results.csv": results_csv(results),
        out / "results.txt": text,
        out / "plot.dat": plot_data(results, model.inequalities),
        out / "manifest.json": _manifest(cfg, {
            "plan_size": plan_size,
            "realizations_per_state": plan_size * cfg.shots,
        }),
    }, text)


def cmd_tomography(args) -> int:
    try:
        cfg = _config(args)
        roster = _select_roster(cfg)
        noise = _noise_from_config(cfg)
        settings = tomography.tomography_settings()
    except ValueError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    out = Path(cfg.out_dir)
    lines = ["state,fidelity,residual,projected"]
    files, fids = {}, []
    for state, res in zip(roster, tomography.run_tomography(
            roster, settings, noise, cfg.shots, cfg.master_seed)):
        fids.append(res.fidelity_to_target)
        lines.append(f"{state.label},{res.fidelity_to_target:.6f},"
                     f"{res.residual:.6g},{int(res.projected)}")
        files[out / f"{state.label}.rho.txt"] = tomography.format_density_matrix(res.rho)
    table = "\n".join(lines) + "\n"
    files[out / "fidelities.csv"] = table
    files[out / "manifest.json"] = _manifest(cfg, {"command": "tomography"})
    return _emit(files, f"{table}mean fidelity {sum(fids) / len(fids):.4f}\n")


def cmd_report(args) -> int:
    run_dir = Path(args.run_dir)
    src = run_dir / "results.csv"
    try:
        results = results_from_csv(src.read_text())
    except OSError as exc:
        sys.stderr.write(f"I/O error: {exc}\n")
        return EXIT_IO
    except (KeyError, TypeError, ValueError) as exc:
        sys.stderr.write(f"malformed results table {src}: {exc!r}\n")
        return EXIT_IO
    text = plot_data(results, build_model().inequalities)
    return _emit({run_dir / "report.dat": text}, text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; it holds no mutable default."""
    p = argparse.ArgumentParser(prog="qutrit-ks",
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the static verification suite")
    v.add_argument("--out", help="write the report to this file")

    c = sub.add_parser("compile", help="emit pulse schedules for settings")
    c.add_argument("settings", nargs="*", help="setting ids, e.g. M5 (default all)")
    c.add_argument("--out-dir", default="schedules")

    def common(sp):
        """The run flags, one per `RunConfig` field, defaults from `RunConfig`."""
        sp.add_argument("--seed", dest="master_seed", type=int)
        sp.add_argument("--shots", type=int)
        sp.add_argument("--noise", choices=["ideal", "paper", "flip", "photon-count"])
        sp.add_argument("--eps-dark-to-bright", type=float)
        sp.add_argument("--eps-bright-to-dark", type=float)
        sp.add_argument("--prep-depolarization", type=float)
        sp.add_argument("--states", nargs="*", metavar="LABEL")
        sp.add_argument("--out-dir")
        sp.set_defaults(**asdict(RunConfig()))

    s = sub.add_parser("simulate", help="run the Monte Carlo experiment")
    common(s)
    s.add_argument("--tomography", dest="with_tomography", action="store_true",
                   help="take fidelities from simulated tomography")

    common(sub.add_parser("tomography", help="simulate and reconstruct states"))

    r = sub.add_parser("report", help="aggregate a finished run directory")
    r.add_argument("run_dir")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Looked up by name on every call, not stored in the cached parser, so a
    # command wrapped on the module after the first parse runs wrapped.
    return globals()[f"cmd_{args.command}"](args)


if __name__ == "__main__":
    sys.exit(main())
