import dataclasses
import json
import math
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import qutrit_ks
from qutrit_ks import cli, pulses


def test_verify_passes(capsys):
    assert cli.main(["verify"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "classical bound chi13 = 25" in out
    assert "verification PASSED" in out


def test_verify_reads_one_model_per_process():
    qutrit_ks.build_model.cache_clear()
    for _ in range(3):
        assert cli.main(["verify"]) == cli.EXIT_OK
    assert qutrit_ks.build_model.cache_info().misses == 1


def test_verify_bounds_chi13_without_its_triple_terms(capsys):
    """The triple-free line is its own check; it never reads as the chi13
    classical bound line, which the benchmark's check searches for."""
    assert cli.main(["verify"]) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    free = [l for l in lines if "without triple terms" in l]
    assert free == ["[ok  ] noncontextual bound chi13 without triple terms = 25: "
                    "max 25, 92 maximizers"]
    assert "classical bound chi13" not in free[0]


def test_verify_operator_lines_are_exact(capsys):
    assert cli.main(["verify"]) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert "[ok  ] quantum chi13 operator = (83/3) I: exact, max entry error 0" in lines
    assert "[ok  ] quantum chi4 operator = (4/3) I: exact, max entry error 0" in lines


def test_verify_report_file(tmp_path, capsys):
    report = tmp_path / "verify.txt"
    assert cli.main(["verify", "--out", str(report)]) == cli.EXIT_OK
    capsys.readouterr()
    assert "PASSED" in report.read_text()
    assert (tmp_path / "verify.model.txt").exists()


def test_verify_out_builds_the_model_once(tmp_path, capsys, monkeypatch):
    """`verify --out` dumps the model its checks ran on; it builds no second."""
    built = []
    original = cli.build_model
    monkeypatch.setattr(cli, "build_model", lambda: built.append(1) or original())
    assert cli.main(["verify", "--out", str(tmp_path / "verify.txt")]) == cli.EXIT_OK
    capsys.readouterr()
    assert len(built) == 1
    assert (tmp_path / "verify.model.txt").read_text() == cli.dump_model(original())


def test_verify_out_without_a_file_name_is_io_error(tmp_path, capsys, monkeypatch):
    """`--out .` names a directory, not a report file: the run exits 3 with
    an I/O error line and writes nothing, as `--out ..` does, and as an empty
    `--out ""` does, which names the current directory."""
    monkeypatch.chdir(tmp_path)
    for out in (".", "..", ""):
        assert cli.main(["verify", "--out", out]) == cli.EXIT_IO
        captured = capsys.readouterr()
        assert captured.err.startswith("I/O error:")
        assert captured.out == ""
    assert list(tmp_path.iterdir()) == []
    assert not (tmp_path.parent / "...model.txt").exists()


def test_verification_suite_peak_memory():
    """A warm `verify` suite allocates at most 768 KiB at its peak. A faster
    suite lets a benchmark run keep more per-operation records, so the
    suite's own transients must stay small for peak RSS to hold."""
    assert cli.run_verification([]) is True  # builds the per-process tables
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        assert cli.run_verification([]) is True
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 768 * 1024


def test_verification_detects_injected_fault(monkeypatch):
    assert cli.run_verification([]) is True
    # fault injection: delete edge (1, 2) and the edge-count check must fail
    model = cli.build_model()
    broken = dataclasses.replace(
        model, edges=frozenset(e for e in model.edges if e != (1, 2)))
    monkeypatch.setattr(cli, "build_model", lambda: broken)
    lines = []
    assert cli.run_verification(lines) is False
    assert any("FAIL" in l for l in lines)


@pytest.mark.parametrize("theta, phi", [(1e-12, 0.0), (4e-5, 0.0), (0.0, math.pi / 2)])
def test_verify_fails_on_an_inexact_setting_angle(monkeypatch, capsys, theta, phi):
    """A table whose M5 alpha pulse is off by 1e-12 or 4e-5 rad, or has
    phi = pi/2, fails `verify` with exit 1 and a FAIL line naming M5."""
    table = pulses.settings_table()

    def broken():
        rows = list(table)
        m5 = rows[4]
        first, alpha = m5.pulses
        rows[4] = dataclasses.replace(m5, pulses=(
            first, pulses.Pulse(alpha.channel, alpha.theta + theta, alpha.phi + phi)))
        return rows

    monkeypatch.setattr(pulses, "settings_table", broken)
    assert cli.main(["verify"]) == cli.EXIT_VERIFY
    lines = capsys.readouterr().out.splitlines()
    assert "[FAIL] all 16 setting mappings: setting M5: a pulse angle is not in " \
        "the exact set" in lines
    assert lines[-1] == "verification FAILED"


def test_verify_serves_nothing_stale(monkeypatch, capsys):
    """After a passing `verify`, the graph, the settings and the coefficient
    matrices are built, yet a removed edge, a changed mu_ij (a new chi13
    spec) and an inexact M5 angle each still fail in the same process: only
    the inputs are kept, never a proof's result."""
    assert cli.main(["verify"]) == cli.EXIT_OK
    model, table = cli.build_model(), pulses.settings_table()
    m5 = table[4]
    inexact = dataclasses.replace(m5, pulses=(
        m5.pulses[0], dataclasses.replace(m5.pulses[1], theta=m5.pulses[1].theta + 1e-12)))
    cases = [
        ("build_model", dataclasses.replace(model, edges=model.edges - {(1, 2)}),
         "[FAIL] graph edges: 23 edges"),
        ("build_model", dataclasses.replace(model, mu_ij={**model.mu_ij, (1, 2): 3}),
         "[FAIL] quantum chi13 operator = (83/3) I"),
        ("settings_table", table[:4] + [inexact] + table[5:],
         "[FAIL] all 16 setting mappings: setting M5"),
    ]
    capsys.readouterr()
    for name, broken, line in cases:
        owner = cli if name == "build_model" else pulses
        with monkeypatch.context() as patch:
            patch.setattr(owner, name, lambda broken=broken: broken)
            assert cli.main(["verify"]) == cli.EXIT_VERIFY
        lines = capsys.readouterr().out.splitlines()
        assert any(l.startswith(line) for l in lines), (line, lines)
        assert lines[-1] == "verification FAILED"
    assert cli.main(["verify"]) == cli.EXIT_OK


def test_compile_unknown_setting(tmp_path, capsys):
    assert cli.main(["compile", "M99", "--out-dir", str(tmp_path)]) \
        == cli.EXIT_CONFIG
    assert capsys.readouterr().err == "config error: unknown setting ids: M99\n"
    assert list(tmp_path.iterdir()) == []


def test_compile_writes_schedules(tmp_path, capsys):
    assert cli.main(["compile", "M5", "M2", "--out-dir", str(tmp_path)]) \
        == cli.EXIT_OK
    capsys.readouterr()
    m5 = (tmp_path / "M5.schedule").read_text()
    assert "duration_us=7.3750" in m5
    assert "duration_us=5.7794" in m5  # alpha pulse at exact 2*asin(1/sqrt(3))


def test_simulate_small_run(tmp_path, capsys):
    out = tmp_path / "run"
    rc = cli.main(["simulate", "--seed", "3", "--shots", "400",
                   "--noise", "ideal", "--states", "psi1", "rho10",
                   "--out-dir", str(out)])
    assert rc == cli.EXIT_OK
    capsys.readouterr()
    assert (out / "counts.csv").exists()
    assert (out / "results.txt").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["master_seed"] == 3
    assert manifest["plan_size"] == 37
    assert manifest["realizations_per_state"] == 37 * 400
    rows = (out / "results.csv").read_text().strip().splitlines()
    assert len(rows) == 3  # header + 2 states


def test_simulate_unknown_state(tmp_path, capsys):
    rc = cli.main(["simulate", "--states", "nope", "--out-dir", str(tmp_path)])
    assert rc == cli.EXIT_CONFIG
    capsys.readouterr()


def test_simulate_determinism_byte_identical(tmp_path, capsys, monkeypatch):
    # the manifest records --out-dir, so both runs use the same relative one
    args = ["simulate", "--seed", "11", "--shots", "300", "--noise", "paper",
            "--states", "psi2", "--out-dir", "run"]
    for rerun in ("a", "b"):
        (tmp_path / rerun).mkdir()
        monkeypatch.chdir(tmp_path / rerun)
        assert cli.main(args) == cli.EXIT_OK
    capsys.readouterr()
    a, b = tmp_path / "a" / "run", tmp_path / "b" / "run"
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    assert "manifest.json" in names
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.parametrize("states", [("psi7",), ()], ids=["one state", "roster"])
def test_run_simulation_estimates_each_witness_once_per_readout(monkeypatch, states):
    """A run divides its count stack once and estimates each inequality once
    raw and once corrected, whatever the roster size: 4 `estimate` calls,
    each over the whole stack."""
    calls = []
    original = cli.analysis.estimate

    def counting(ineq, freqs, rates):
        calls.append(freqs.f.shape)
        return original(ineq, freqs, rates)

    monkeypatch.setattr(cli.analysis, "estimate", counting)
    _, rows = cli.run_simulation(cli.RunConfig(shots=100, states=states), cli.build_model())
    assert calls == [(len(rows), 3 * 37)] * 4


def test_manifest_records_the_versions(tmp_path, capsys, monkeypatch):
    """Both run commands record the package, numpy and Python versions, which
    explain a count digest that moved, and a rerun writes the same bytes."""
    monkeypatch.chdir(tmp_path)
    versions = {"qutrit_ks": qutrit_ks.__version__, "numpy": np.__version__,
                "python": ".".join(map(str, sys.version_info[:3]))}
    for command in ("simulate", "tomography"):
        written = []
        for _ in range(2):
            assert cli.main([command, "--shots", "50", "--states", "psi1",
                             "--out-dir", command]) == cli.EXIT_OK
            written.append((tmp_path / command / "manifest.json").read_bytes())
        assert written[0] == written[1]
        assert json.loads(written[0])["versions"] == versions
    capsys.readouterr()


def test_emit_creates_each_directory_once(tmp_path, monkeypatch):
    made = []
    original = Path.mkdir
    monkeypatch.setattr(Path, "mkdir", lambda self, *a, **k: made.append(self) or
                        original(self, *a, **k))
    (tmp_path / "b").mkdir()
    made.clear()
    files = {tmp_path / "a" / f"{k}.txt": str(k) for k in range(4)}
    cli._emit({**files, tmp_path / "b" / "c" / "x.txt": "x"})
    assert made == [tmp_path / "a", tmp_path / "b" / "c"]
    assert [p.read_text() for p in files] == ["0", "1", "2", "3"]


def test_report_from_run(tmp_path, capsys):
    out = tmp_path / "run"
    cli.main(["simulate", "--seed", "5", "--shots", "300", "--noise", "ideal",
              "--out-dir", str(out)])
    capsys.readouterr()
    assert cli.main(["report", str(out)]) == cli.EXIT_OK
    text = capsys.readouterr().out
    lines = [l for l in text.strip().splitlines() if not l.startswith("#")]
    assert len(lines) == 12  # one row per roster state
    assert "# reference classical_chi13 25" in text
    assert (out / "report.dat").exists()


def test_one_shot_run_has_nan_significance(tmp_path, capsys):
    """At one shot every table sees a single outcome, so every stderr is 0:
    the z-scores are written as nan, and `report` reads the table back."""
    out = tmp_path / "run"
    assert cli.main(["simulate", "--shots", "1", "--states", "psi1",
                     "--out-dir", str(out)]) == cli.EXIT_OK
    assert (out / "results.csv").read_text().splitlines()[1].endswith(",nan,nan")
    [r] = cli.results_from_csv((out / "results.csv").read_text())
    assert (r["chi13_err"], r["chi4_err"]) == (0.0, 0.0)
    assert math.isnan(r["sigma13"]) and math.isnan(r["sigma4"])
    capsys.readouterr()
    assert cli.main(["report", str(out)]) == cli.EXIT_OK
    assert capsys.readouterr().out.splitlines()[1].startswith("psi1 ")


def test_report_missing_dir(tmp_path, capsys):
    assert cli.main(["report", str(tmp_path / "nowhere")]) == cli.EXIT_IO
    capsys.readouterr()


def test_tomography_command(tmp_path, capsys):
    out = tmp_path / "tomo"
    rc = cli.main(["tomography", "--seed", "1", "--shots", "2000",
                   "--noise", "paper", "--states", "psi1", "psi4",
                   "--out-dir", str(out)])
    assert rc == cli.EXIT_OK
    text = capsys.readouterr().out
    assert "mean fidelity" in text
    assert (out / "psi1.rho.txt").exists()
    assert (out / "fidelities.csv").exists()


def test_verification_fails_on_operator_for_changed_weight(monkeypatch):
    model = cli.build_model()
    changed = dataclasses.replace(model, mu_ij={**model.mu_ij, (1, 2): 3})
    monkeypatch.setattr(cli, "build_model", lambda: changed)
    lines = []
    assert cli.run_verification(lines) is False
    assert "[FAIL] quantum chi13 operator = (83/3) I: exact, max entry error 1" in lines
    assert any(l.startswith("[ok  ] quantum chi4 operator") for l in lines)


def test_verification_reports_a_fractional_operator_error(monkeypatch):
    """mu_13 = 3 adds A_13 = I - 2 P_13, whose entries are 1/3 and -2/3: the
    integer compare reports the largest as the exact `Fraction` 2/3."""
    model = cli.build_model()
    changed = dataclasses.replace(model, mu_i={**model.mu_i, 13: 3})
    monkeypatch.setattr(cli, "build_model", lambda: changed)
    lines = []
    assert cli.run_verification(lines) is False
    assert "[FAIL] quantum chi13 operator = (83/3) I: exact, max entry error 2/3" in lines


def test_report_equals_plot_data(tmp_path, capsys):
    out = tmp_path / "run"
    assert cli.main(["simulate", "--seed", "2", "--shots", "500",
                     "--noise", "paper", "--out-dir", str(out)]) == cli.EXIT_OK
    assert cli.main(["report", str(out)]) == cli.EXIT_OK
    capsys.readouterr()
    assert (out / "report.dat").read_bytes() == (out / "plot.dat").read_bytes()
    # Blank lines in the table are skipped.
    table = out / "results.csv"
    table.write_text(table.read_text().replace("\n", "\n\n"))
    (out / "report.dat").unlink()
    assert cli.main(["report", str(out)]) == cli.EXIT_OK
    capsys.readouterr()
    assert (out / "report.dat").read_bytes() == (out / "plot.dat").read_bytes()


def test_report_unreadable_table_is_io_error(tmp_path, capsys):
    (tmp_path / "results.csv").mkdir()
    assert cli.main(["report", str(tmp_path)]) == cli.EXIT_IO
    assert capsys.readouterr().err.startswith("I/O error:")


def test_report_malformed_table(tmp_path, capsys):
    """A header that lacks columns, a row with more or fewer fields than the
    full header (refused with the line and its field count), or a field past
    the csv module's size limit is malformed."""
    (tmp_path / "results.csv").write_text("state,chi13\npsi1,27.0\n")
    assert cli.main(["report", str(tmp_path)]) == cli.EXIT_IO
    err = capsys.readouterr().err
    assert "malformed results table" in err
    assert err.startswith("I/O error: ") and err.count("\n") == 1
    for fields in (14, 11):
        (tmp_path / "results.csv").write_text(
            cli.results_csv([]) + ",".join(["psi1"] + ["1"] * (fields - 1)) + "\n")
        assert cli.main(["report", str(tmp_path)]) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert "malformed results table" in err
        assert f"line 2: {fields} fields, not 12" in err
        assert not (tmp_path / "report.dat").exists()
    (tmp_path / "results.csv").write_text(cli.results_csv([]) + "psi1," + "1" * 200_000)
    assert cli.main(["report", str(tmp_path)]) == cli.EXIT_IO
    assert "malformed results table" in capsys.readouterr().err


def test_report_undecodable_table_is_malformed(tmp_path, capsys):
    """A `results.csv` that is not valid UTF-8 is a malformed table: exit 3,
    and no `report.dat`."""
    (tmp_path / "results.csv").write_bytes(b"\xff\xfe\x00")
    assert cli.main(["report", str(tmp_path)]) == cli.EXIT_IO
    assert "malformed results table" in capsys.readouterr().err
    assert not (tmp_path / "report.dat").exists()


def test_report_rejects_an_incomplete_header_without_rows(tmp_path, capsys):
    """A header that lacks a column is malformed whether or not rows follow;
    the full header without rows is an empty table."""
    for text in ("", "state,fidelity\n"):
        (tmp_path / "results.csv").write_text(text)
        assert cli.main(["report", str(tmp_path)]) == cli.EXIT_IO
        assert "malformed results table" in capsys.readouterr().err
        assert not (tmp_path / "report.dat").exists()
    (tmp_path / "results.csv").write_text(cli.results_csv([]))
    assert cli.main(["report", str(tmp_path)]) == cli.EXIT_OK
    assert all(line.startswith("#") for line in capsys.readouterr().out.splitlines())


@pytest.mark.parametrize("command,shots", [("simulate", "-5"), ("simulate", "0"),
                                           ("tomography", "0")])
def test_nonpositive_shots_is_config_error(tmp_path, capsys, command, shots):
    rc = cli.main([command, "--shots", shots, "--states", "psi1",
                   "--out-dir", str(tmp_path / "run")])
    assert rc == cli.EXIT_CONFIG
    assert "config error: shots must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["simulate", "tomography"])
def test_oversized_shots_is_config_error(tmp_path, capsys, command):
    rc = cli.main([command, "--shots", "10000000000000000000", "--states", "psi1",
                   "--out-dir", str(tmp_path / "run")])
    assert rc == cli.EXIT_CONFIG
    assert "at most 9223372036854775807, got 10000000000000000000" \
        in capsys.readouterr().err
    assert not (tmp_path / "run").exists()
    assert cli.RunConfig(shots=2 ** 63 - 1).shots == cli.simulate.MAX_SHOTS


def test_max_shots_run_pools_in_exact_integers(tmp_path, capsys):
    """At 2**63 - 1 shots every table still sums to its shots, each
    frequency is the correctly rounded count / total, which numpy's division
    of two rounded counts is not, and the raw chi13 weight on each table's
    first dark entry is the correctly rounded c_r n_k / N_r of its first ray
    r, whose pooled total N_r exceeds int64 for every ray measured first
    more than once."""
    argv = ["--shots", str(cli.simulate.MAX_SHOTS)]  # all 12 states
    out = tmp_path / "run"
    assert cli.main(["simulate", *argv, "--out-dir", str(out)]) == cli.EXIT_OK
    capsys.readouterr()
    text = (out / "counts.csv").read_text()
    totals = {}
    for row in text.splitlines()[1:]:
        state, _, chain, _, count, _ = row.split(",")
        totals[state, chain] = totals.get((state, chain), 0) + int(count)
    assert len(totals) == 12 * 37
    assert set(totals.values()) == {cli.simulate.MAX_SHOTS}

    model = cli.build_model()
    cfg = cli.RunConfig(shots=cli.simulate.MAX_SHOTS)
    run, _ = cli.run_simulation(cfg, model)
    assert cli.simulate.counts_to_csv(*run) == text
    raw = cli.simulate.readout_rates(cli.simulate.NoiseModel.ideal())
    plan = cli.simulate.build_plan(model, cli.pulses.settings_table(), cfg.shots)
    pooled = {}  # each ray's total over the tables that measure it first
    for sub in plan:
        pooled[sub.chain[0]] = pooled.get(sub.chain[0], 0) + sub.shots
    assert max(pooled.values()) > 2 ** 63
    freqs = cli.analysis.frequencies(plan, run[2])
    assert freqs.f.tolist() == [[float(Fraction(c, sub.shots))
                                 for sub, row in zip(plan, counts) for c in row]
                                for counts in run[2].tolist()]
    # a single's D and a pair's DB carry ray r's single weight alone
    single = model.chi13.terms
    w = cli.analysis.affine_map(model.chi13, freqs.layout, *raw).w
    assert [w[3 * k + 1] for k in range(len(plan))] == [
        float(Fraction(single[sub.chain[:1]] * sub.shots, pooled[sub.chain[0]]))
        for sub in plan]


ORDINARY = {"state": "rho10", "fidelity": 0.9876, "chi13_raw": 25.846, "chi13_raw_err": 0.1,
            "chi13": 27.5, "chi13_err": 0.146, "chi4_raw": 1.2, "chi4_raw_err": 0.2,
            "chi4": 1.33, "chi4_err": 0.0123, "sigma13": 17.25, "sigma4": math.nan}


def test_results_text_keeps_wide_columns_apart(tmp_path, capsys):
    """A significance wider than its column (here 9 and 10 digits) still
    stands apart from its neighbours; an ordinary or nan row fills its
    columns exactly as before, and each heading and both rules end with it."""
    out = tmp_path / "run"
    assert cli.main(["simulate", "--states", "psi1", "--shots", str(cli.simulate.MAX_SHOTS),
                     "--out-dir", str(out)]) == cli.EXIT_OK
    row = (out / "results.txt").read_text().splitlines()[2]
    [r] = cli.results_from_csv((out / "results.csv").read_text())
    assert r["sigma13"] >= 1e8 and r["sigma4"] >= 1e8
    assert row.split()[-2:] == [f"{r['sigma13']:.1f}", f"{r['sigma4']:.1f}"]
    assert capsys.readouterr().out == (out / "results.txt").read_text()

    head, rule, row = cli.results_text([ORDINARY], cli.build_model().inequalities).splitlines()[:3]
    assert row == "rho10     0.9876        25.846    27.500 (0.146)   1.3300 (0.0123)    17.2     nan"
    assert len(head) == len(rule) == len(row)
    # each heading but the left-aligned state ends where its values end
    value_ends = {i for i, ch in enumerate(row) if ch != " " and row[i + 1:i + 2] in ("", " ")}
    assert {head.index(c.heading) + len(c.heading) - 1
            for c in cli._COLUMNS[1:] if c.cell} <= value_ends


@pytest.mark.parametrize("plot, cell", [(False, ""), (True, " {extra:>6.2f}")])
def test_a_column_added_to_the_table_reaches_every_output(monkeypatch, plot, cell):
    """`run_simulation` fills exactly the table's columns; a column patched
    into the table, and a row that holds it, need no other edit to reach
    results.csv, plot.dat and results.txt when marked, and the parser."""
    _, rows = cli.run_simulation(cli.RunConfig(shots=100, states=("psi1",)), cli.build_model())
    assert [set(row) for row in rows] == [{c.name for c in cli._COLUMNS}]

    extra = cli._Column("extra", ".2f", plot, "extra", cell)
    monkeypatch.setattr(cli, "_COLUMNS", (*cli._COLUMNS, extra))
    row, inequalities = {**ORDINARY, "extra": 2.5}, cli.build_model().inequalities
    text = cli.results_csv([row])
    assert [line.split(",")[-1] for line in text.splitlines()] == ["extra", "2.50"]
    [back] = cli.results_from_csv(text)
    assert (back["state"], back["extra"]) == ("rho10", 2.5)
    head, data = cli.plot_data([row], inequalities).splitlines()[:2]
    assert (head.endswith(" extra"), data.endswith(" 2.50")) == (plot, plot)
    head, rule, data = cli.results_text([row], inequalities).splitlines()[:3]
    assert (head.split()[-1], data.split()[-1]) == (("extra", "2.50") if cell else ("sig4", "nan"))
    assert len(head) == len(rule) == len(data)


def _results(out):
    return {r["state"]: r for r in cli.results_from_csv((out / "results.csv").read_text())}


@pytest.mark.parametrize("argv", [
    ["verify", "--out", "{blocked}/verify.txt"],
    ["compile", "M5", "--out-dir", "{blocked}/schedules"],
    ["simulate", "--shots", "100", "--states", "psi1", "--out-dir", "{blocked}/run"],
    ["tomography", "--shots", "100", "--states", "psi1", "--out-dir", "{blocked}/tomo"],
    ["compile", "M5", "--out-dir", ""],
    ["simulate", "--shots", "100", "--states", "psi1", "--out-dir", ""],
    ["tomography", "--shots", "100", "--states", "psi1", "--out-dir", ""],
    ["report", ""],
])
def test_unwritable_output_is_io_error(tmp_path, capsys, monkeypatch, argv):
    """An output under a regular file, or an empty `--out-dir` or `report`
    run directory, which would name the current directory, exits 3 with one
    I/O error line and writes nothing, even where the current directory holds
    a results table."""
    monkeypatch.chdir(tmp_path)
    blocked = tmp_path / "file"
    blocked.write_text("a regular file, not a directory\n")
    (tmp_path / "results.csv").write_text(cli.results_csv([]))
    rc = cli.main([a.format(blocked=blocked) for a in argv])
    assert rc == cli.EXIT_IO
    captured = capsys.readouterr()
    assert captured.err.startswith("I/O error:") and captured.err.count("\n") == 1
    assert captured.out == ""
    assert sorted(tmp_path.iterdir()) == [blocked, tmp_path / "results.csv"]


def test_report_unwritable_output_is_io_error(tmp_path, capsys):
    out = tmp_path / "run"
    assert cli.main(["simulate", "--shots", "100", "--states", "psi1",
                     "--out-dir", str(out)]) == cli.EXIT_OK
    capsys.readouterr()
    (out / "report.dat").mkdir()
    assert cli.main(["report", str(out)]) == cli.EXIT_IO
    assert capsys.readouterr().err.startswith("I/O error:")


def test_tomography_takes_the_flip_rates(tmp_path, capsys):
    common = ["tomography", "--seed", "4", "--shots", "2000", "--noise", "flip",
              "--states", "psi7"]
    assert cli.main([*common, "--out-dir", str(tmp_path / "a")]) == cli.EXIT_OK
    assert cli.main([*common, "--eps-dark-to-bright", "0.2",
                     "--out-dir", str(tmp_path / "b")]) == cli.EXIT_OK
    capsys.readouterr()
    assert (tmp_path / "a" / "fidelities.csv").read_text() \
        != (tmp_path / "b" / "fidelities.csv").read_text()
    manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert manifest["config"]["eps_dark_to_bright"] == 0.2


@pytest.mark.parametrize("seed", range(12))
def test_tomography_at_near_zero_visibility_runs(tmp_path, capsys, seed):
    """A readout of visibility 1e-10 scales the solved map by 1e-10 and the
    estimate by 1e10; the rank check is relative to that scale, and the
    projection keeps unit trace at it, so the run ends normally at every
    seed."""
    assert cli.main(["tomography", "--noise", "flip", "--eps-dark-to-bright", "0.5",
                     "--eps-bright-to-dark", "0.4999999999", "--states", "psi1",
                     "--seed", str(seed), "--out-dir", str(tmp_path)]) == cli.EXIT_OK
    capsys.readouterr()
    assert (tmp_path / "psi1.rho.txt").exists()


def test_ideal_noise_honours_prep_depolarization(tmp_path, capsys):
    out = tmp_path / "run"
    assert cli.main(["simulate", "--shots", "200", "--noise", "ideal",
                     "--prep-depolarization", "0.5", "--states", "psi1",
                     "--out-dir", str(out)]) == cli.EXIT_OK
    capsys.readouterr()
    # (1 - p) * 1 + p / 3 for a pure state depolarized with weight p
    assert _results(out)["psi1"]["fidelity"] == pytest.approx(2 / 3, abs=1e-6)


@pytest.mark.parametrize("command", ["simulate", "tomography"])
def test_ideal_noise_validates_flip_rates(tmp_path, capsys, command):
    rc = cli.main([command, "--noise", "ideal", "--eps-dark-to-bright", "1.5",
                   "--states", "psi1", "--out-dir", str(tmp_path / "run")])
    assert rc == cli.EXIT_CONFIG
    assert "config error: probabilities must lie in [0, 1]" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["simulate", "tomography"])
def test_flip_rates_summing_to_one_are_config_error(tmp_path, capsys, command):
    rc = cli.main([command, "--eps-dark-to-bright", "0.6", "--eps-bright-to-dark", "0.5",
                   "--states", "psi1", "--out-dir", str(tmp_path / "run")])
    assert rc == cli.EXIT_CONFIG
    assert "config error: flip rates must sum to less than 1" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["simulate", "tomography"])
def test_repeated_state_label_is_config_error(tmp_path, capsys, command):
    rc = cli.main([command, "--shots", "100", "--states", "psi1", "psi2", "psi1",
                   "--out-dir", str(tmp_path / "run")])
    assert rc == cli.EXIT_CONFIG
    assert "config error: repeated state labels: psi1" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["simulate", "tomography"])
def test_run_flag_defaults_are_the_config_defaults(command):
    parser = cli.build_parser()
    assert cli.build_parser() is parser  # built once per process
    cfg = cli._config(parser.parse_args([command, "--states", "psi3", "--seed", "9"]))
    assert (cfg.states, cfg.master_seed) == (("psi3",), 9)
    assert cli._config(parser.parse_args([command])) == cli.RunConfig()
