"""Run directories pinned by digest: a refactor of the simulation or the
tomography path must reproduce every output file byte for byte.

All 16 run digests, the three one-state digests and the text digests were
re-recorded when each state's count tables became one multinomial draw on
the keyed stream of (seed, state, plan), where each sub-experiment and
tomography sub-run had a stream of its own, and `counts.csv` came to list
each table's symbols in draw order: every count-derived byte moved, while
the law, `verify` and schedule digests did not. Seven of the eight
`tomography` run digests were re-recorded when the reconstruction came to
solve every state through one SVD of the response map in place of a
least-squares call per state: its parameters moved in their last bits
(2.7e-15 relative at most), which reach the 12 digits of a `*.rho.txt`
file, while no `simulate` digest moved. A change that means to alter a
draw, a reconstruction or an estimate updates them and says why in
CHANGES.md.

The law digests pin every per-shot law itself, bit for bit, so a 1-ulp
change shows on the law and not only on a count table drawn from it.
"""

import contextlib
import hashlib
import io

import pytest

from qutrit_ks import analysis, cli, pulses, simulate
from qutrit_ks.model import CHI4, build_model

from helpers import expected_laws

NOISES = {
    "ideal": ["--noise", "ideal"],
    "paper": ["--noise", "paper"],
    "photon-count": ["--noise", "photon-count"],
    "flip-harsh": ["--noise", "flip", "--eps-dark-to-bright", "0.2",
                   "--eps-bright-to-dark", "0.3", "--prep-depolarization", "0.1"],
}
COMMANDS = {
    "simulate": (["simulate", "--tomography"], ["counts.csv", "results.csv"]),
    "tomography": (["tomography"], ["fidelities.csv"] + sorted(
        f"{s.label}.rho.txt" for s in simulate.default_state_roster())),
}
SHOTS = 10_000

DIGESTS = {
    ("simulate", "ideal", 0):
        "8ac620da497f3a273ab7dffc40c3f210a2517cb236a00bbc6e7679087e3e6141",
    ("simulate", "ideal", 7):
        "b2b1dcd1c96f02f079dbd6cea56a7965a8d54ff6b36d2720180a3ee2953e633c",
    ("simulate", "paper", 0):
        "8feb9db4787037e79476d9636a8932caed267c3cae6883d1bdd8d8a29d07f054",
    ("simulate", "paper", 7):
        "2df3c7db72bb27bd41f2d1c222e19e189c6db2610582632956332761e8f4b733",
    ("simulate", "photon-count", 0):
        "c0309bd50bf33334f3eea6abd2854d074286063426300e7a23d8cd03c3e75e68",
    ("simulate", "photon-count", 7):
        "c309f01fedc4b40807dd44fabb84f13ce8d03f255b4b3301405041130d06a190",
    ("simulate", "flip-harsh", 0):
        "f97253fb7255d59c2b01cc0178542d2bfac6fd005bd8ebcb2e2445ae80c16667",
    ("simulate", "flip-harsh", 7):
        "5f72855463f103ee37e2188a760f3afe98e8a21915c2a079e7e48d8309967c47",
    ("tomography", "ideal", 0):
        "35d3f0eb29d02268341c7244b067a4ad3a081c0a42187d5390311b3f8e442376",
    ("tomography", "ideal", 7):
        "119533dfc7038a6e3a8963003e3f7b96e66eb1027a6124d1d8eae91cdfeaef78",
    ("tomography", "paper", 0):
        "3a664870b62966fd4c5ad619ab1524abaaaede76a997c6cd9087dfa7c58be106",
    ("tomography", "paper", 7):
        "be5949c452ac9ee7d0402a37d4b102beaeab7a8d96e72899995ff475313c652e",
    ("tomography", "photon-count", 0):
        "629f59bb7f8de75b2ccbf1097adcb0f7869bee7c6126181c5665a283cedeff49",
    ("tomography", "photon-count", 7):
        "14def53334fa4b078bfebd03dee18de481d46b9372af6e5c3aeb23ed471c19b9",
    ("tomography", "flip-harsh", 0):
        "477b0f7e92e0b6e316ba4282e6da59b904b545ca0ad847974d05d1209c936079",
    ("tomography", "flip-harsh", 7):
        "e6cdb13f0af0f4825ac4a892245f43d2198f65a06b8c6a627fdbe81588e674bb",
}


def run_digest(out_dir, command: str, noise: str, seed: int) -> str:
    """sha256 over the named output files of one run, name and content."""
    argv, names = COMMANDS[command]
    code = cli.main([*argv, *NOISES[noise], "--seed", str(seed),
                     "--shots", str(SHOTS), "--out-dir", str(out_dir)])
    assert code == cli.EXIT_OK
    digest = hashlib.sha256()
    for name in names:
        digest.update(name.encode() + b"\0" + (out_dir / name).read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("command, noise, seed", sorted(DIGESTS))
def test_run_directory_matches_pinned_digest(tmp_path, capsys, command, noise, seed):
    assert run_digest(tmp_path, command, noise, seed) == DIGESTS[command, noise, seed]


# Every `expected_laws` value, as `float.hex`, of the 12 default states and
# the 37 plan entries under each golden noise configuration, recorded before
# the law path was restructured; a 1-ulp drift in any law fails here and not
# only through the count tables drawn from it.
LAW_NOISES = {
    "ideal": simulate.NoiseModel.ideal(),
    "paper": simulate.NoiseModel.paper(),
    "photon-count": simulate.NoiseModel(mode="photon-count"),
    "flip-harsh": simulate.NoiseModel(eps_dark_to_bright=0.2, eps_bright_to_dark=0.3,
                                      prep_depolarization=0.1),
}
LAW_DIGESTS = {
    "ideal":
        "6d9c949a92104734a9b1886646feb4629fe36fdda98840b5c953ef03de10c57e",
    "paper":
        "cfef7140556401de16f2e2516995355611d95d9d767d61f4a528430bc71c1e6d",
    "photon-count":
        "8768cf2330d175670ff4fe1a7cfe0bf3779324b781b427d7e9c7a9053771b702",
    "flip-harsh":
        "bd013edf7465f80013d5f5bc409ae07830f7a5363d755ccaac6b8a397c3d4adc",
}


def law_digest(noise: simulate.NoiseModel) -> str:
    """sha256 over each state, plan entry, symbol and `float.hex` of its law."""
    settings = pulses.settings_table()
    plan = simulate.build_plan(build_model(), settings)
    laws = expected_laws(simulate.default_state_roster(), plan, settings, noise)
    digest = hashlib.sha256()
    for label, state_laws in laws.items():
        for sub, law in zip(plan, state_laws):
            digest.update(f"{label}/{sub.key}".encode())
            for symbol, p in law.items():
                digest.update(f" {symbol}={p.hex()}".encode())
            digest.update(b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize("noise", sorted(LAW_DIGESTS))
def test_expected_laws_match_pinned_digest(noise):
    assert law_digest(LAW_NOISES[noise]) == LAW_DIGESTS[noise]


# One-state runs and their four estimates, the operation that every pull
# gate repeats over seeds: each count and the `float.hex` of the value and
# stderr of raw and corrected chi13 and chi4, for all 12 states at 2000
# shots and for psi1 and rho10 at 1 and 2^63 - 1 shots, seeds 0, 1 and
# 10000. All three were re-recorded when each state came to draw its plan
# in one multinomial call on the stream of (seed, state, plan).
CALIBRATION_SEEDS = (0, 1, 10_000)
CALIBRATION_DIGESTS = {
    "ideal":
        "2fde1f7bedcf2b7f321e616e2d31e9514c825265a9c2bf49503a59ebca7045b8",
    "paper":
        "f0920126bb943dc02afa13fe2009e18bd998d87c0fc0ce0930067956fd9407aa",
    "photon-count":
        "33659687c6b4202687688d0d9b6991d7c7e1d38b13a9434671e8a5708f80776b",
}


def calibration_digest(noise: simulate.NoiseModel) -> str:
    """sha256 over one-state runs: every count, then each estimate's bits."""
    model, settings = build_model(), pulses.settings_table()
    roster = simulate.default_state_roster()
    corrections = (simulate.readout_rates(simulate.NoiseModel.ideal()),
                   simulate.readout_rates(noise))
    runs = [(2000, roster)] + [(shots, [s for s in roster if s.label in ("psi1", "rho10")])
                               for shots in (1, 2 ** 63 - 1)]
    digest = hashlib.sha256()
    for shots, states in runs:
        plan = simulate.build_plan(model, settings, shots)
        for seed in CALIBRATION_SEEDS:
            for state in states:
                effs, names, [counts] = simulate.draw_roster([state], plan, settings, noise,
                                                             seed)
                digest.update(f"{shots}/{seed}/{state.label}".encode())
                for syms, row in zip(effs.symbols, counts.tolist()):
                    table = sorted(zip(syms, row[-len(syms):]))  # a single's pad dropped
                    digest.update(f" {names[state.label]}:{table}".encode())
                freqs = analysis.frequencies(plan, counts)
                for ineq in (model.chi13, CHI4):
                    for rates in corrections:
                        est = analysis.estimate(ineq, freqs, rates)
                        digest.update(f" {est.value.hex()} {est.stderr.hex()}".encode())
                digest.update(b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize("noise", sorted(CALIBRATION_DIGESTS))
def test_one_state_runs_and_estimates_match_pinned_digest(noise):
    assert calibration_digest(LAW_NOISES[noise]) == CALIBRATION_DIGESTS[noise]


# `verify`'s stdout, its `--out` report and the `.model.txt` dump beside it.
# The report was re-recorded when the setting mappings became an exact proof
# ("exact over Q(sqrt2, sqrt3)"), and again when `verify` began to bound chi13
# without its triple terms (one new line); the model dump was recorded before
# the hidden-variable enumeration and the exact operator were restructured. A
# changed check line, count or model dump fails here.
VERIFY_DIGESTS = {
    "stdout": "9f07a80f59a11e7327809a687f3c73e98c091c02808aca25d8044d3f34ff46f8",
    "verify.txt": "9f07a80f59a11e7327809a687f3c73e98c091c02808aca25d8044d3f34ff46f8",
    "verify.model.txt": "7d5e93793beccf74a627ed7e0d04993feac6b47918303a10dadde4ff3e63e173",
}


def test_verify_outputs_match_pinned_digests(tmp_path, capsys):
    assert cli.main(["verify", "--out", str(tmp_path / "verify.txt")]) == cli.EXIT_OK
    outputs = {"stdout": capsys.readouterr().out.encode()}
    outputs.update({name: (tmp_path / name).read_bytes()
                    for name in ("verify.txt", "verify.model.txt")})
    assert {name: hashlib.sha256(data).hexdigest()
            for name, data in outputs.items()} == VERIFY_DIGESTS


# The 16 `.schedule` files that `compile` writes with no setting named, by
# one digest over each file's name and content in name order; recorded before
# the hardware figures became module constants.
SCHEDULE_DIGEST = "5e80773f66506a58cfcaa844d76360c0f3ba1c9128216af6eab0faa6ab90a851"


def test_compiled_schedules_match_pinned_digest(tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["compile", "--out-dir", str(tmp_path)]) == cli.EXIT_OK
    paths = sorted(tmp_path.glob("*.schedule"))
    assert len(paths) == 16
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    assert digest.hexdigest() == SCHEDULE_DIGEST


# `results.txt`, `plot.dat`, the `report.dat` that `report` writes beside
# them and the simulate stdout, each pinned by one digest over the 8 golden
# simulate runs above and psi1 and rho10 at 1 and 2^63 - 1 shots;
# re-recorded with the run digests, when every count moved.
TEXT_RUNS = [[*COMMANDS["simulate"][0], *NOISES[noise], "--seed", str(seed),
              "--shots", str(SHOTS)] for command, noise, seed in sorted(DIGESTS)
             if command == "simulate"] + [
    ["simulate", "--states", "psi1", "rho10", "--shots", str(shots)]
    for shots in (1, 2 ** 63 - 1)]
TEXT_DIGESTS = {
    "results.txt":
        "0e406b6d2b700bd09c17b2955ac206ec8599fdf8e0eeb3db1ebb2c1f1d56506e",
    "plot.dat":
        "aa9cc7772591ee674a29e55f9bf0c9fa4c81c341be60cd08b85fea5d2ed1b646",
    "report.dat":
        "aa9cc7772591ee674a29e55f9bf0c9fa4c81c341be60cd08b85fea5d2ed1b646",
    "stdout":
        "0e406b6d2b700bd09c17b2955ac206ec8599fdf8e0eeb3db1ebb2c1f1d56506e",
}


def test_text_outputs_match_pinned_digests(tmp_path):
    digests = {name: hashlib.sha256() for name in TEXT_DIGESTS}
    for i, argv in enumerate(TEXT_RUNS):
        out, stdout = tmp_path / str(i), io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert cli.main([*argv, "--out-dir", str(out)]) == cli.EXIT_OK
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["report", str(out)]) == cli.EXIT_OK
        outputs = {"stdout": stdout.getvalue().encode()}
        outputs.update({name: (out / name).read_bytes()
                        for name in ("results.txt", "plot.dat", "report.dat")})
        for name, data in outputs.items():
            digests[name].update(data + b"\0")
    assert {name: d.hexdigest() for name, d in digests.items()} == TEXT_DIGESTS
