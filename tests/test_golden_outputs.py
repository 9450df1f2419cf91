"""Run directories pinned by digest: a refactor of the simulation or the
tomography path must reproduce every output file byte for byte.

All 16 run digests were re-recorded when tomography moved to least squares
on the raw frequencies against the run-rate sub-run map, with the trace
fixed exactly and the nearest-state projection: `fidelities.csv` and the
`*.rho.txt` files changed, and so did the fidelity column of the simulate
`results.csv`, while `counts.csv` stayed byte-identical. A change that means
to alter a draw, a reconstruction or an estimate updates them and says why
in CHANGES.md.

The law digests pin every per-shot law itself, bit for bit, so a 1-ulp
change shows on the law and not only on a count table drawn from it.
"""

import hashlib

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
        "31ddb7d34553af749aa21153fbe7ae0e5c62f6ddfcdfb77b54ce300ad6477b14",
    ("simulate", "ideal", 7):
        "ce6701fc955ca5371b5debe6cd611d59a96c3c906ac1e145401bf7948ef9e25d",
    ("simulate", "paper", 0):
        "b62e94e41b0d75fdf1914b2a1febfde6500caf18c2d1981d25c8a8951206eca2",
    ("simulate", "paper", 7):
        "8ed83108489c2bc55374027ce9868a46b92b08d042175f9274fe843e93b93b13",
    ("simulate", "photon-count", 0):
        "66688326e5a1b56027d8e37e4d7c5c09c4d58e2d90b1aa310f19ef8591bb4d7d",
    ("simulate", "photon-count", 7):
        "0d4a94ed9ac7b243e2d37d0827e265cd883128ba854d6f92e65f33d3b6d0b3c9",
    ("simulate", "flip-harsh", 0):
        "9c69ca8f60edf1fbad8e3088a2ee4dc1ede49a934edd8a0b852af9851cf80318",
    ("simulate", "flip-harsh", 7):
        "734f25c755ecb6f0308e913ed02d5a2ef80cd9e44cac6f43088ebd7d1abe7c22",
    ("tomography", "ideal", 0):
        "d71483499294e7a8aeae71667febbe686457eb7766600257a17aa0086d5461cc",
    ("tomography", "ideal", 7):
        "a5c50a5b360f2b594a319b41a39c852c276004d8780d05459d994b6a2b720dc3",
    ("tomography", "paper", 0):
        "9a03dba992e552bd9427789a96c0e72052265b0e1e84a7899d3efafa923d3157",
    ("tomography", "paper", 7):
        "0489f32f687a92acd3881879d7b3cd370f0fbfad32c74a135b4c75d9bdbf5f05",
    ("tomography", "photon-count", 0):
        "1d1c140689be33be568a997e317afcfab6a84bb82af4536052dfb24fe33032d4",
    ("tomography", "photon-count", 7):
        "dffd3d6820fa7b38470be7469e8a4b463c56d77ae8f0578f69c942d91e4dc492",
    ("tomography", "flip-harsh", 0):
        "193234037a4d5328f47cdf77d2400151a1780b76d52a9e3406b32aa9ee6801d2",
    ("tomography", "flip-harsh", 7):
        "b7a9e2a267d4b8b30e9d9838cb5804b2c71cdbed87905eaf77928eabceeca0e5",
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
# restructured.
CALIBRATION_SEEDS = (0, 1, 10_000)
CALIBRATION_DIGESTS = {
    "ideal":
        "91d09266ac8518786deea9dbd9073170ebd471bcc962a489a7709fe22e070d69",
    "paper":
        "f4267d9e08ac9560629b0f6dbdd026abf82c70e84f532bc40cd8a55437b811d4",
    "photon-count":
        "0dad0ff93a57018440d24331c91f37aff46607327327da8fb260790cc751a3b1",
}


def calibration_digest(noise: simulate.NoiseModel) -> str:
    """sha256 over one-state runs: every count, then each estimate's bits."""
    model, settings = build_model(), pulses.settings_table()
    roster = simulate.default_state_roster()
    corrections = (analysis.confusion_for(simulate.NoiseModel.ideal()),
                   analysis.confusion_for(noise))
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
                    for confusion in corrections:
                        est = analysis.estimate(ineq, freqs, confusion)
                        digest.update(f" {est.value.hex()} {est.stderr.hex()}".encode())
                digest.update(b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize("noise", sorted(CALIBRATION_DIGESTS))
def test_one_state_runs_and_estimates_match_pinned_digest(noise):
    assert calibration_digest(LAW_NOISES[noise]) == CALIBRATION_DIGESTS[noise]


# `verify`'s stdout, its `--out` report and the `.model.txt` dump beside it,
# recorded before the hidden-variable enumeration and the exact operator were
# restructured; a changed check line, count or model dump fails here.
VERIFY_DIGESTS = {
    "stdout": "9498af176be2cad24b84835f72e32e9f6196b1cdeebda4e493d28216d59fbeee",
    "verify.txt": "9498af176be2cad24b84835f72e32e9f6196b1cdeebda4e493d28216d59fbeee",
    "verify.model.txt": "7d5e93793beccf74a627ed7e0d04993feac6b47918303a10dadde4ff3e63e173",
}


def test_verify_outputs_match_pinned_digests(tmp_path, capsys):
    assert cli.main(["verify", "--out", str(tmp_path / "verify.txt")]) == cli.EXIT_OK
    outputs = {"stdout": capsys.readouterr().out.encode()}
    outputs.update({name: (tmp_path / name).read_bytes()
                    for name in ("verify.txt", "verify.model.txt")})
    assert {name: hashlib.sha256(data).hexdigest()
            for name, data in outputs.items()} == VERIFY_DIGESTS
