import dataclasses
import json
import math
from fractions import Fraction

import pytest

from qutrit_ks import cli


def test_verify_passes(capsys):
    assert cli.main(["verify"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "classical bound chi13 = 25" in out
    assert "verification PASSED" in out


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


def test_compile_unknown_setting(tmp_path, capsys):
    assert cli.main(["compile", "M99", "--out-dir", str(tmp_path)]) \
        == cli.EXIT_CONFIG
    capsys.readouterr()


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
    assert (r.chi13.stderr, r.chi4.stderr) == (0.0, 0.0)
    assert math.isnan(r.significance13) and math.isnan(r.significance4)
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
    assert any(l.startswith("[FAIL] quantum chi13 operator = (83/3) I")
               for l in lines)
    assert any(l.startswith("[ok  ] quantum chi4 operator") for l in lines)


def test_report_equals_plot_data(tmp_path, capsys):
    out = tmp_path / "run"
    assert cli.main(["simulate", "--seed", "2", "--shots", "500",
                     "--noise", "paper", "--out-dir", str(out)]) == cli.EXIT_OK
    assert cli.main(["report", str(out)]) == cli.EXIT_OK
    capsys.readouterr()
    assert (out / "report.dat").read_bytes() == (out / "plot.dat").read_bytes()


def test_report_unreadable_table_is_io_error(tmp_path, capsys):
    (tmp_path / "results.csv").mkdir()
    assert cli.main(["report", str(tmp_path)]) == cli.EXIT_IO
    assert capsys.readouterr().err.startswith("I/O error:")


def test_report_malformed_table(tmp_path, capsys):
    (tmp_path / "results.csv").write_text("state,chi13\npsi1,27.0\n")
    assert cli.main(["report", str(tmp_path)]) == cli.EXIT_IO
    assert "malformed results table" in capsys.readouterr().err


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
    assert cli.RunConfig(shots=2 ** 63 - 1).shots == cli.MAX_SHOTS


def test_max_shots_run_pools_in_exact_integers(tmp_path, capsys):
    """At 2**63 - 1 shots every table still sums to its shots, and raw chi4,
    whose pooled totals exceed int64, is the float of the exact sum of each
    ray's dark / total."""
    argv = ["--shots", str(cli.MAX_SHOTS), "--states", "psi7", "rho10"]
    out = tmp_path / "run"
    assert cli.main(["simulate", *argv, "--out-dir", str(out)]) == cli.EXIT_OK
    capsys.readouterr()
    text = (out / "counts.csv").read_text()
    totals, dark, pooled = {}, {}, {}
    for row in text.splitlines()[1:]:
        state, _, chain, symbol, count, _ = row.split(",")
        totals[state, chain] = totals.get((state, chain), 0) + int(count)
        first = (state, int(chain.split("-")[0]))
        pooled[first] = pooled.get(first, 0) + int(count)
        if symbol in ("D", "DB", "DD"):
            dark[first] = dark.get(first, 0) + int(count)
    assert len(totals) == 2 * 37
    assert set(totals.values()) == {cli.MAX_SHOTS}
    assert max(pooled.values()) > 2 ** 63

    model = cli.build_model()
    cfg = cli.RunConfig(shots=cli.MAX_SHOTS, states=("psi7", "rho10"))
    tables, _ = cli.run_simulation(cfg, model)
    assert cli.simulate.counts_to_csv(tables) == text
    raw = cli.analysis.ConfusionModel(0.0, 0.0)
    for label in ("psi7", "rho10"):
        chi4 = cli.analysis.estimate(cli.CHI4, cli.analysis.frequencies(tables[label]), raw)
        assert chi4.value == float(sum(Fraction(dark[label, ray], pooled[label, ray])
                                       for ray in range(10, 14)))


def _results(out):
    return {r.label: r for r in cli.results_from_csv((out / "results.csv").read_text())}


@pytest.mark.parametrize("argv", [
    ["verify", "--out", "{blocked}/verify.txt"],
    ["compile", "M5", "--out-dir", "{blocked}/schedules"],
    ["simulate", "--shots", "100", "--states", "psi1", "--out-dir", "{blocked}/run"],
    ["tomography", "--shots", "100", "--states", "psi1", "--out-dir", "{blocked}/tomo"],
])
def test_unwritable_output_is_io_error(tmp_path, capsys, argv):
    blocked = tmp_path / "file"
    blocked.write_text("a regular file, not a directory\n")
    rc = cli.main([a.format(blocked=blocked) for a in argv])
    assert rc == cli.EXIT_IO
    captured = capsys.readouterr()
    assert captured.err.startswith("I/O error:")
    assert captured.out == ""


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


def test_ideal_noise_honours_prep_depolarization(tmp_path, capsys):
    out = tmp_path / "run"
    assert cli.main(["simulate", "--shots", "200", "--noise", "ideal",
                     "--prep-depolarization", "0.5", "--states", "psi1",
                     "--out-dir", str(out)]) == cli.EXIT_OK
    capsys.readouterr()
    # (1 - p) * 1 + p / 3 for a pure state depolarized with weight p
    assert _results(out)["psi1"].fidelity == pytest.approx(2 / 3, abs=1e-6)


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
