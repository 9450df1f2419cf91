"""Run directories pinned by digest: a refactor of the simulation or the
tomography path must reproduce every output file byte for byte.

The tomography digests were recorded from the per-state tomography
implementation that preceded the stacked pass (commit 1b81b2f). The simulate
digests were re-recorded when one affine estimator replaced the per-term
correction chain: `results.csv` changed (no clip, exact variance) while
`counts.csv` stayed byte-identical. A change that means to alter a draw, a
reconstruction or an estimate updates them and says why in CHANGES.md.

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
        "486d4574e54e8f870ab39a6bbf75cfee5946ee70798aa96cfae6cdfabd640476",
    ("simulate", "ideal", 7):
        "5a85e584e343aca9d5daa438315b9035363f591afc6b6d2cd6cc9c6203cb737e",
    ("simulate", "paper", 0):
        "48193db9a8c9b2b922a8b3991be627bd3a0fcbb687732efbb7c8d2c765546191",
    ("simulate", "paper", 7):
        "4789174858d5dbbf9f93634471427466d50683b31c58a98b9507639464c42968",
    ("simulate", "photon-count", 0):
        "fb877b343aaf1753d0dc30d6f07574d0f2a055b1659c0cb0342ccaa414b6fa51",
    ("simulate", "photon-count", 7):
        "abc634084433d9c17ae116675d400924e8bd6e5e431b4d8a66442fad0105371e",
    ("simulate", "flip-harsh", 0):
        "b91c43dced3194e3da27e81daf39344ddcb2c80121154332caabc1bf00e6a0c4",
    ("simulate", "flip-harsh", 7):
        "eea210fb73b519cbb42c8ff41a1eefbccf51765b1bd2f1bd71989ee4394b9f84",
    ("tomography", "ideal", 0):
        "8ad0b60a6f0720abff88e7addca508fdfbce8d03110f418fc765d503b813f965",
    ("tomography", "ideal", 7):
        "0792e5d44bf75c15b72082ff8bed817df1644760706e73ff870f6410c5850e5d",
    ("tomography", "paper", 0):
        "005b359add361ad7e703b3a047ead0ed554ded5ccc5049e6cb32f2c5817abc79",
    ("tomography", "paper", 7):
        "eeebad2c5b580892f6b72dec7882ca3465d191bcfb246597f11b47c60a5735f2",
    ("tomography", "photon-count", 0):
        "30fb8e76305160c91c7e5c043e0dc5d885615db586d164ef4285aadb5bf0b267",
    ("tomography", "photon-count", 7):
        "fbeb9950ef53ef4486536590f0b62f621b283a83dfb817755958add7155ba3c9",
    ("tomography", "flip-harsh", 0):
        "bffdf09bbeca53003c9af8532be2320d16438efd1a616b2e907e4c0d50fa4609",
    ("tomography", "flip-harsh", 7):
        "4bcdd8f2b6e5154f66e117736d400dee6c96a9d9d9caf4a11971581f89913e4f",
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
