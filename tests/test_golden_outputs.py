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
file, while no `simulate` digest moved. The four `simulate` digests of
ideal and photon-count readout, all eight `tomography` digests, and the
law, one-state and text digests were re-recorded when the effects came to
be built from lab-frame projectors: the effect planes moved by at most
2.2e-16, and a law that moves by an ulp can redraw a whole table. A
change that means to alter a
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
        "cbe354c8b0a03094e1bdbc3de0a403599db57bc4f03a04d52d6d21b250c6aea1",
    ("simulate", "ideal", 7):
        "d6734ea386b578cdbd074d409b024c3f2c70d7559bb01406b4df20b5f6f49129",
    ("simulate", "paper", 0):
        "8feb9db4787037e79476d9636a8932caed267c3cae6883d1bdd8d8a29d07f054",
    ("simulate", "paper", 7):
        "2df3c7db72bb27bd41f2d1c222e19e189c6db2610582632956332761e8f4b733",
    ("simulate", "photon-count", 0):
        "845901f6efdb16e465ec261557e5a03f990a6bfb9411690e5bbbd7c3b27fd095",
    ("simulate", "photon-count", 7):
        "bc246ae6a9717c5ebc5d2fe0bca2f642159e78d25727d5489a078977cdd51520",
    ("simulate", "flip-harsh", 0):
        "f97253fb7255d59c2b01cc0178542d2bfac6fd005bd8ebcb2e2445ae80c16667",
    ("simulate", "flip-harsh", 7):
        "5f72855463f103ee37e2188a760f3afe98e8a21915c2a079e7e48d8309967c47",
    ("tomography", "ideal", 0):
        "666529a3dea447e052b4375e68e34c5bff3b5e7f07a711cc42ea16ba39556d0b",
    ("tomography", "ideal", 7):
        "1ee441127b296ea057b61d49e55112e32bcb3c2b9d59034faadaae4fed5b22ab",
    ("tomography", "paper", 0):
        "30c69105503391957bc77e18a1d7c6d2bac540a80f21ea7cad6ea39dbba98227",
    ("tomography", "paper", 7):
        "10442889a24151c44c541074b4b1cc4730f3ea06460d2380a1a621f54865f624",
    ("tomography", "photon-count", 0):
        "9dc57456c1947bd483bcb8846b8dbaaab871aaf124a5750cc0f6909a96b4c8a7",
    ("tomography", "photon-count", 7):
        "9e46dd29586ba192bebad927f7f52edf42f83b8781a6d6fb7c7cd4440e13e74c",
    ("tomography", "flip-harsh", 0):
        "198be67dde69eb7d70d081448969f23cd7249121d2cd140a3c497917405b8079",
    ("tomography", "flip-harsh", 7):
        "5d6d22a9f2e93fff631274284281d613d73974d957df8889cea84cee69abfd15",
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
# the law path was restructured and re-recorded when the effects came to be
# built from lab-frame projectors; a 1-ulp drift in any law fails here and
# not only through the count tables drawn from it.
LAW_NOISES = {
    "ideal": simulate.NoiseModel.ideal(),
    "paper": simulate.NoiseModel.paper(),
    "photon-count": simulate.NoiseModel(mode="photon-count"),
    "flip-harsh": simulate.NoiseModel(eps_dark_to_bright=0.2, eps_bright_to_dark=0.3,
                                      prep_depolarization=0.1),
}
LAW_DIGESTS = {
    "ideal":
        "1583e6141ffef7e4d04b28895890884d9570fb0e3c59fbe4fda620ed5d8fb004",
    "paper":
        "87ad71e1a81b9131deaf8922a39623f233d1d0b67bd58e48c95131ae7afff507",
    "photon-count":
        "06cfec6e7339c9bd57a909b2035a7a5d683a8027d52ca561414ee11391c41531",
    "flip-harsh":
        "ab9316459bdf6c05ebf4adf5d760b3145b8a66a2a86340ce2e4bc44d7ddfc230",
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
# in one multinomial call on the stream of (seed, state, plan); "paper" and
# "photon-count" again when the estimator map came to be rounded once from
# its exact value, which moved corrected estimates in their last bits; all
# three when the effects came to be built from lab-frame projectors.
CALIBRATION_SEEDS = (0, 1, 10_000)
CALIBRATION_DIGESTS = {
    "ideal":
        "854ac49e78e43e902f0806fefc7366784160c5630d8933819a99e2dfbdff41d9",
    "paper":
        "3aca46ec53661542314fd716a347ee4613b5edb71fb58aacb8c9ed8a76513eb9",
    "photon-count":
        "4b35959c685fdffcad555fd9bc69eae7a56d0d351c9464f4866206a75a37dde8",
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
# re-recorded with the run digests, when every count moved, and when the
# effects came to be built from lab-frame projectors.
TEXT_RUNS = [[*COMMANDS["simulate"][0], *NOISES[noise], "--seed", str(seed),
              "--shots", str(SHOTS)] for command, noise, seed in sorted(DIGESTS)
             if command == "simulate"] + [
    ["simulate", "--states", "psi1", "rho10", "--shots", str(shots)]
    for shots in (1, 2 ** 63 - 1)]
TEXT_DIGESTS = {
    "results.txt":
        "ff90dda2a7ee2b963e5c351582b9b02a78889a8d268b230c0d83cb79a6087b6c",
    "plot.dat":
        "30b57046c0c706f157948f5d7af6d35dac969964f16a6ff64778a7130c52b71b",
    "report.dat":
        "30b57046c0c706f157948f5d7af6d35dac969964f16a6ff64778a7130c52b71b",
    "stdout":
        "ff90dda2a7ee2b963e5c351582b9b02a78889a8d268b230c0d83cb79a6087b6c",
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
