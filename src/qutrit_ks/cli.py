"""Command-line entry point: verify, compile, simulate, tomography, report.

Each `cmd_*` returns its files, its output and its exit code, and `main`
writes them. Exit codes: 0 success, 1 verification failure, 2 configuration
error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__, analysis, hv, linalg, pulses, simulate, tomography
from .model import (CHI4, Inequality, KSModel, build_model, dump_model, operator_numerator,
                    triple_free)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_IO = 3
_Result = tuple[dict[Path, str], str, int]  # a command's files, stdout and exit code


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
        if not 1 <= self.shots <= simulate.MAX_SHOTS:
            raise ValueError(f"shots must be at least 1 and at most {simulate.MAX_SHOTS}, "
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


def run_verification(report_lines: list[str], model: KSModel | None = None) -> bool:
    """Static checks of `model`: graph, operators, bounds, setting mappings."""
    ok = True

    def check(name: str, passed: bool, detail: str = ""):
        nonlocal ok
        ok = ok and passed
        status = "ok  " if passed else "FAIL"
        report_lines.append(f"[{status}] {name}" + (f": {detail}" if detail else ""))

    model = build_model() if model is None else model
    check("graph edges", len(model.edges) == 24, f"{len(model.edges)} edges")
    expected_tris = {(1, 2, 3), (1, 4, 7), (2, 5, 8), (3, 6, 9)}
    check("graph triangles", set(model.triangles) == expected_tris,
          f"{sorted(model.triangles)}")

    for ineq in model.inequalities:
        numerator, den = operator_numerator(ineq)  # den times the operator
        q = ineq.quantum_value  # entries of q.denominator den (op - q I), as Python ints
        err = max(abs(x * q.denominator - (i == j) * q.numerator * den)
                  for i, row in enumerate(numerator.tolist()) for j, x in enumerate(row))
        check(f"quantum {ineq.name} operator = ({q}) I", err == 0,
              f"exact, max entry error {Fraction(err, q.denominator * den) if err else 0}")

    r13, r4 = hv.max_chi13_noncontextual(model), hv.max_chi4_constrained(model)
    for ineq, r, detail in ((model.chi13, r13, f"{r13.argmax_count} maximizers"),
                            (CHI4, r4, f"{r4.admissible_count} admissible assignments")):
        check(f"classical bound {ineq.name} = {ineq.classical_bound}",
              r.maximum == ineq.classical_bound, f"max {r.maximum}, {detail}")
    free = triple_free(model.chi13)
    r = hv.enumerate_bound(free, model)
    check(f"noncontextual bound {free.name} = {free.classical_bound}",
          r.maximum == free.classical_bound, f"max {r.maximum}, {r.argmax_count} maximizers")

    settings = pulses.settings_table()
    try:
        pulses.verify_all_settings(settings)
        check("all 16 setting mappings", True, "exact over Q(sqrt2, sqrt3)")
    except ValueError as exc:
        check("all 16 setting mappings", False, str(exc))

    check("settings cover all 24 edges", pulses.covered_pairs(settings) == set(model.edges))
    return ok


def cmd_verify(args) -> _Result:
    lines: list[str] = []
    model = build_model()
    ok = run_verification(lines, model)
    lines.append("verification " + ("PASSED" if ok else "FAILED"))
    text = "\n".join(lines) + "\n"
    files = {}
    if args.out is not None:
        out = Path(args.out)
        files = {out: text, out.parent / f"{out.stem}.model.txt": dump_model(model)}
    return files, text, EXIT_OK if ok else EXIT_VERIFY


def cmd_compile(args) -> _Result:
    table = {s.id: s for s in pulses.settings_table()}
    unknown = [i for i in args.settings if i not in table]
    if unknown:
        raise ValueError(f"unknown setting ids: {', '.join(unknown)}")
    out = _dir(args.out_dir)
    files = {out / f"{sid}.schedule": pulses.format_schedule(table[sid])
             for sid in (args.settings or sorted(table))}
    return files, "".join(f"wrote {path}\n" for path in files), EXIT_OK


class _Column(NamedTuple):
    """A results column: its `results.csv` name and format (read back as text
    if "s", else float), whether `plot.dat` shows it, its `results.txt` heading and cell."""
    name: str
    fmt: str = ".6f"
    plot: bool = False
    heading: str = ""
    cell: str = ""


# Every results column, in file order, declared once. A number's cell opens
# with a space, so a value too wide for its column cannot touch its neighbour.
_COLUMNS = (
    _Column("state", "s", plot=True, heading="state", cell="{state:<8}"),
    _Column("fidelity", heading="fid", cell=" {fidelity:>7.4f}"),
    _Column("chi13_raw", heading="chi13 raw", cell=" {chi13_raw:>13.3f}"),
    _Column("chi13_raw_err"),
    _Column("chi13", plot=True, heading="chi13 corr", cell=" {chi13:>9.3f} ({chi13_err:.3f})"),
    _Column("chi13_err", plot=True),
    _Column("chi4_raw"),
    _Column("chi4_raw_err"),
    _Column("chi4", plot=True, heading="chi4 corr", cell=" {chi4:>8.4f} ({chi4_err:.4f})"),
    _Column("chi4_err", plot=True),
    _Column("sigma13", ".3f", heading="sig13", cell=" {sigma13:>7.1f}"),
    _Column("sigma4", ".3f", heading="sig4", cell=" {sigma4:>7.1f}"),
)


def run_simulation(cfg: RunConfig, model: KSModel) -> tuple[tuple, list[dict]]:
    """Execute the full plan for the configured roster; pure computation.
    Returns `simulate.draw_roster`'s plan effects, stream names and count
    stack, and each state's result as a row keyed by column name."""
    settings = pulses.settings_table()
    plan = simulate.build_plan(model, settings, cfg.shots)
    roster = _select_roster(cfg)
    noise = _noise_from_config(cfg)
    rates = simulate.readout_rates(noise)
    run = simulate.draw_roster(roster, plan, settings, noise, cfg.master_seed)
    if cfg.with_tomography:
        fids = [res.fidelity_to_target for res in tomography.run_tomography(
            roster, tomography.tomography_settings(), noise, cfg.shots,
            cfg.master_seed)]
    else:
        fids = linalg.fidelities([simulate.prepare(state, noise) for state in roster],
                                 [state.rho for state in roster])

    raw = simulate.readout_rates(simulate.NoiseModel.ideal())
    freqs = analysis.frequencies(plan, run[2])  # the roster's (S, n, 3) count stack
    rows = [{"state": state.label, "fidelity": fid} for state, fid in zip(roster, fids)]
    for ineq in model.inequalities:
        for name, r in ((f"{ineq.name}_raw", raw), (ineq.name, rates)):
            ests = analysis.estimate(ineq, freqs, r)
            for row, est in zip(rows, ests):
                row[name], row[f"{name}_err"] = est.value, est.stderr
        z = "sigma" + ineq.name.removeprefix("chi")  # corrected est's z: sigma13, sigma4
        for row, est in zip(rows, ests):
            row[z] = analysis.significance(est, ineq.classical_bound)
    return run, rows


def _line(columns, sep: str) -> str:  # the format string of a row's `columns`
    return sep.join(f"{{{c.name}:{c.fmt}}}" for c in columns)


def results_csv(rows: list[dict]) -> str:
    return "\n".join([",".join(c.name for c in _COLUMNS),
                      *map(_line(_COLUMNS, ",").format_map, rows)]) + "\n"


def results_text(rows: list[dict], inequalities: tuple[Inequality, ...]) -> str:
    shown = [c for c in _COLUMNS if c.cell]
    zero = dict.fromkeys((c.name for c in _COLUMNS), 0.0)  # a row of ordinary width
    widths = [len(c.cell.format_map(zero)) for c in shown]
    head = "".join(f"{c.heading:{'<' if c is shown[0] else '>'}{w}}"
                   for c, w in zip(shown, widths))
    rule = "-" * len(head)
    cells = "".join(c.cell for c in shown)
    bounds = ", ".join(f"{w.name} <= {w.classical_bound}" for w in inequalities)
    values = ", ".join(f"{float(w.quantum_value):.4f}" for w in inequalities)
    return "\n".join([head, rule, *map(cells.format_map, rows), rule,
                      f"classical bounds: {bounds}; quantum values: {values}"]) + "\n"


def results_from_csv(text: str) -> list[dict]:
    """Parse `results_csv` output by header name into rows; a header without
    a column `results_csv` writes, or a row of another width, is malformed."""
    def parsed(values):
        if len(values) != len(header):
            raise ValueError(f"line {reader.line_num}: {len(values)} fields, not {len(header)}")
        row = dict(zip(header, values))
        return {c.name: row[c.name] if c.fmt == "s" else float(row[c.name]) for c in _COLUMNS}
    reader = csv.reader(io.StringIO(text))
    header = next(reader, [])
    missing = [c.name for c in _COLUMNS if c.name not in header]
    if missing:
        raise ValueError(f"missing columns {', '.join(missing)}")
    return [parsed(values) for values in filter(None, reader)]


def plot_data(rows: list[dict], inequalities: tuple[Inequality, ...]) -> str:
    """Columnar plot-ready data with the inequalities' reference lines."""
    shown = [c for c in _COLUMNS if c.plot]
    lines = ["# column data: " + " ".join(c.name for c in shown),
             *map(_line(shown, " ").format_map, rows)]
    for w in inequalities:
        lines.append(f"# reference classical_{w.name} {w.classical_bound}")
        lines.append(f"# reference quantum_{w.name} {float(w.quantum_value):.9f}")
    return "\n".join(lines) + "\n"


def _emit(files: dict[Path, str]) -> None:
    """The one output path: create each distinct directory once, then write
    every file."""
    for directory in dict.fromkeys(path.parent for path in files):
        directory.mkdir(parents=True, exist_ok=True)
    for path, text in files.items():
        path.write_text(text)


def _dir(name: str, role: str = "output") -> Path:
    if not name:  # Path("") is the current directory
        raise OSError(f"the {role} directory name is empty")
    return Path(name)


def _config(args) -> RunConfig:
    """The run the parsed run flags of `simulate` or `tomography` describe."""
    return RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)})


def _manifest(cfg: RunConfig, extra: dict) -> str:
    """The run's config and `extra`, with the versions that made it: numpy
    does not promise a `Generator`'s streams across releases (NEP 19)."""
    versions = {"qutrit_ks": __version__, "numpy": np.__version__,
                "python": "{}.{}.{}".format(*sys.version_info)}
    return json.dumps({"config": asdict(cfg), "versions": versions, **extra},
                      indent=2, sort_keys=True) + "\n"


def cmd_simulate(args) -> _Result:
    cfg, model = _config(args), build_model()
    run, rows = run_simulation(cfg, model)
    out = _dir(cfg.out_dir)
    text = results_text(rows, model.inequalities)
    plan_size = len(run[0].entries)
    return {
        out / "counts.csv": simulate.counts_to_csv(*run),
        out / "results.csv": results_csv(rows),
        out / "results.txt": text,
        out / "plot.dat": plot_data(rows, model.inequalities),
        out / "manifest.json": _manifest(cfg, {
            "plan_size": plan_size,
            "realizations_per_state": plan_size * cfg.shots,
        }),
    }, text, EXIT_OK


def cmd_tomography(args) -> _Result:
    cfg = _config(args)
    roster = _select_roster(cfg)
    results = tomography.run_tomography(
        roster, tomography.tomography_settings(), _noise_from_config(cfg),
        cfg.shots, cfg.master_seed)
    out = _dir(cfg.out_dir)
    lines = ["state,fidelity,residual,projected"]
    files = {}
    for state, res in zip(roster, results):
        lines.append(f"{state.label},{res.fidelity_to_target:.6f},"
                     f"{res.residual:.6g},{int(res.projected)}")
        files[out / f"{state.label}.rho.txt"] = tomography.format_density_matrix(res.rho)
    table = "\n".join(lines) + "\n"
    files[out / "fidelities.csv"] = table
    files[out / "manifest.json"] = _manifest(cfg, {"command": "tomography"})
    mean = sum(res.fidelity_to_target for res in results) / len(results)
    return files, f"{table}mean fidelity {mean:.4f}\n", EXIT_OK


def cmd_report(args) -> _Result:
    run_dir = _dir(args.run_dir, "run")
    src = run_dir / "results.csv"
    try:
        rows = results_from_csv(src.read_text())
    except (csv.Error, ValueError) as exc:  # UnicodeDecodeError is a ValueError
        raise OSError(f"malformed results table {src}: {exc!r}") from exc
    text = plot_data(rows, build_model().inequalities)
    return {run_dir / "report.dat": text}, text, EXIT_OK


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
    """Run one command, write its files, print its output and return its exit
    code; the one place a refusal becomes a stderr line and an exit code."""
    args = build_parser().parse_args(argv)
    try:
        # Looked up by name on every call, not stored in the cached parser, so a
        # command wrapped on the module after the first parse runs wrapped.
        files, stdout, code = globals()[f"cmd_{args.command}"](args)
        _emit(files)
    except ValueError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except OSError as exc:
        sys.stderr.write(f"I/O error: {exc}\n")
        return EXIT_IO
    sys.stdout.write(stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
