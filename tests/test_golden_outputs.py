"""Run directories pinned by digest: a refactor of the simulation or the
tomography path must reproduce every output file byte for byte.

The tomography digests were recorded from the per-state tomography
implementation that preceded the stacked pass (commit 1b81b2f). The simulate
digests were re-recorded when one affine estimator replaced the per-term
correction chain: `results.csv` changed (no clip, exact variance) while
`counts.csv` stayed byte-identical. A change that means to alter a draw, a
reconstruction or an estimate updates them and says why in CHANGES.md.
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
