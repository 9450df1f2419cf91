"""Run directories pinned by digest: a refactor of the simulation or the
tomography path must reproduce every output file byte for byte.

All 16 run digests were re-recorded when tomography's sub-runs became a
plan drawn by `simulate.run_roster`, each on its own keyed stream
(seed/label/sub-run key) where a state's sub-runs used to share one
stream: `fidelities.csv` and the `*.rho.txt` files changed, and so did the
fidelity column of the simulate `results.csv`, while `counts.csv` stayed
byte-identical. A change that means to alter a draw, a reconstruction or an
estimate updates them and says why in CHANGES.md.

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
        "94db9d5e9f5cba73bf89070455a5abde2e01a9affac8e35ea8449f779357948e",
    ("simulate", "ideal", 7):
        "335cc46faa48d156338309eb6bccd977a2914fe431738d434feb182270a219a1",
    ("simulate", "paper", 0):
        "0a75e28bbcb661ff0294ef3b72b09b37a2d8ca9c958ee9593c4f23a3f74d376f",
    ("simulate", "paper", 7):
        "c906ce2ae7ae12771ce7d166de698a7ccb3a732d7755fb28254584d3e99a3b57",
    ("simulate", "photon-count", 0):
        "9f9f292b34ad85a4d5c7502eb1e0a5633b88db1133f7a2d8aabb496c23f5408e",
    ("simulate", "photon-count", 7):
        "7e73715e4fd5ef024d7672bd4f44d0344c4610c82b54126f0c78a64c716f5a0a",
    ("simulate", "flip-harsh", 0):
        "dec0ad4fe9a457dfc01d9a326818946ecf0709d98fc6f15860548082cd68eee5",
    ("simulate", "flip-harsh", 7):
        "14523b7ab4add5c6f2edb9f03d711a329a90e2db4949107d80ebbe5b244888d9",
    ("tomography", "ideal", 0):
        "d13c4e17b91bfebe086e9b8ca73584675a2184ebf7f2add271fac931d919bbfb",
    ("tomography", "ideal", 7):
        "6453972167c808e8209a82c850a14f7f01238e15c121e1495081281e7b53f8f9",
    ("tomography", "paper", 0):
        "e733471cad4bc735a96c5c918fe460fa3c2b5537e271dccfaaf99fe228ca4982",
    ("tomography", "paper", 7):
        "b408b0ca2593af0a46a03ffba032d4398fc8687f5b6373a29723f41f1cf8b6d8",
    ("tomography", "photon-count", 0):
        "90729136789edc294c4d7fa7fb8fe20d8103d168ffee9ef74d3e02d2b73481c8",
    ("tomography", "photon-count", 7):
        "ea22fde99e83219dadc3f73411f36d0deae7ad2cd652e15454a9a1f01fefe10b",
    ("tomography", "flip-harsh", 0):
        "cc23fa6124d115344823595d2f4ec648bef0ca3628b0110c42a241ac1f8ceb59",
    ("tomography", "flip-harsh", 7):
        "fcfb9aa5ea39a2527ef739eae3f8c038af85f5ae68c31c8ff707ae5f50db42c9",
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
    simulate._plan_effects.cache_clear()  # form every row afresh, none kept
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
# 10000; recorded before the draw loop and the estimator lookup were
# restructured. "paper" and "photon-count" were re-recorded when the
# estimator became rate-free parts evaluated at the rates: their estimates
# moved by at most 5.3e-15 relative, and no count moved.
CALIBRATION_SEEDS = (0, 1, 10_000)
CALIBRATION_DIGESTS = {
    "ideal":
        "91d09266ac8518786deea9dbd9073170ebd471bcc962a489a7709fe22e070d69",
    "paper":
        "afa147387f110289e659a60228991e3db917df5cc5f2ee824416dca62373f87e",
    "photon-count":
        "fa7c72fb1afc30fb6c17ad8ef39cc37fb8e9177aedbf7c62161077197e1e41aa",
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
                [tables] = simulate.run_roster([state], plan, settings, noise, seed).values()
                digest.update(f"{shots}/{seed}/{state.label}".encode())
                for t in tables:
                    digest.update(f" {t.seed_key}:{sorted(t.counts.items())}".encode())
                freqs = analysis.frequencies(tables)
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
# ("exact over Q(sqrt2, sqrt3)"); the model dump was recorded before the
# hidden-variable enumeration and the exact operator were restructured. A
# changed check line, count or model dump fails here.
VERIFY_DIGESTS = {
    "stdout": "1cd57916c1bd3ec76676a05ed7a973754b95d1df1e1c99a6140a6cf23fd0d585",
    "verify.txt": "1cd57916c1bd3ec76676a05ed7a973754b95d1df1e1c99a6140a6cf23fd0d585",
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
# simulate runs above and psi1 and rho10 at 1 and 2^63 - 1 shots. Recorded
# before the results columns were declared in one table; `results.txt` and
# the stdout were re-recorded when each heading came to end where its values
# end and the rules to span an ordinary row (82 characters, not 76).
TEXT_RUNS = [[*COMMANDS["simulate"][0], *NOISES[noise], "--seed", str(seed),
              "--shots", str(SHOTS)] for command, noise, seed in sorted(DIGESTS)
             if command == "simulate"] + [
    ["simulate", "--states", "psi1", "rho10", "--shots", str(shots)]
    for shots in (1, 2 ** 63 - 1)]
TEXT_DIGESTS = {
    "results.txt":
        "e793525cd379be6c6377147038000e80340b02c40e9d702153f82bc5beae7cd9",
    "plot.dat":
        "ab4f8f5d31f38a06a835a3520436377794b1bebde9647f897dceb5a6dd08c83c",
    "report.dat":
        "ab4f8f5d31f38a06a835a3520436377794b1bebde9647f897dceb5a6dd08c83c",
    "stdout":
        "e793525cd379be6c6377147038000e80340b02c40e9d702153f82bc5beae7cd9",
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
