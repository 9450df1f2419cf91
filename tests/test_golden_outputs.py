"""Run directories pinned by digest: a refactor of the simulation or the
tomography path must reproduce every output file byte for byte.

The digests were recorded from the per-state tomography implementation that
preceded the stacked pass (commit 1b81b2f). A change that means to alter a
draw or a reconstruction updates them and says why in CHANGES.md.
"""

import hashlib

import pytest

from qutrit_ks import cli, simulate

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
        "7fe817e6f8b5a89bde76daae98f5f2e7cf38d5036afcc6f4be33b17183ff7f3d",
    ("simulate", "ideal", 7):
        "b0e891403deb657087e5b479a2a70d88afadbda4030e8a56424b34890ef6457e",
    ("simulate", "paper", 0):
        "083975e792a4222acb4c99cb0d2fe230e64d672027ee198ca5d20be8c31187ed",
    ("simulate", "paper", 7):
        "0a0d1b73a29589df0a9d5cb5590f7ffbc7cf050fdcf45e405f32339652780f51",
    ("simulate", "photon-count", 0):
        "f0c35fb2341728ea116d60f021157fc2ab3c69f03904d3a2775b8a62b70ff725",
    ("simulate", "photon-count", 7):
        "ee8f4c360b405454d7430b6db6cf551611d455352260172ec3a9191471694812",
    ("simulate", "flip-harsh", 0):
        "1a1fadcf73f9ab9f91ae79615c611c9e3a4d99b8566f974e9e41e5706d2af5f7",
    ("simulate", "flip-harsh", 7):
        "c666c0e218ec1bca9541d38a65169ece630b22a7d72c5fb3a558cc33ba2d913d",
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
