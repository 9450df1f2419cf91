import dataclasses
import math
import re

import numpy as np
import pytest

from qutrit_ks import linalg, pulses, simulate, tomography
from qutrit_ks.model import RAYS, build_model, ray_unit


@pytest.fixture(scope="module")
def settings():
    return pulses.settings_table()


def rotation(channel, theta, phi):
    return pulses.pulse_matrix(pulses.Pulse(channel, theta, phi))


def test_r1_identity():
    assert np.allclose(rotation(1, 0.0, 1.23), np.eye(3), atol=1e-15)


def test_r1_direct_substitution():
    m = rotation(1, math.pi / 2, math.pi)
    s = 1 / math.sqrt(2)
    expected = np.array([[s, 0, -s], [0, 1, 0], [s, 0, s]])
    assert np.allclose(m, expected, atol=1e-12)


def test_r2_direct_substitution():
    m = rotation(2, math.pi, math.pi)
    expected = np.array([[1, 0, 0], [0, 0, 1], [0, -1, 0]])
    assert np.allclose(m, expected, atol=1e-12)


def test_rotations_unitary():
    rng = np.random.default_rng(1)
    for _ in range(100):
        t, p = rng.uniform(0, 2 * math.pi, 2)
        for m in (rotation(1, t, p), rotation(2, t, p)):
            assert linalg.frobenius_distance(
                linalg.adjoint(m) @ m, np.eye(3)) < 1e-12


def test_alpha_identity():
    assert math.sin(pulses.ALPHA / 2) == pytest.approx(1 / math.sqrt(3), abs=1e-12)
    assert abs(pulses.ALPHA - 0.392 * math.pi) < 2e-3


def test_settings_shape(settings):
    assert [s.id for s in settings] == [f"M{i}" for i in range(1, 17)]
    for s in settings[:4]:
        assert len(s.mapping) == 3
    for s in settings[4:]:
        assert len(s.mapping) == 2
    mapped = {r for s in settings for r in s.mapping.values()}
    assert mapped == set(range(1, 14))


def test_settings_rows_match_examples(settings):
    by_id = {s.id: s for s in settings}
    assert by_id["M1"].mapping == {1: 1, 2: 2, 3: 3}
    assert by_id["M1"].pulses == ()
    assert by_id["M2"].mapping == {1: 5, 2: 2, 3: 8}
    assert by_id["M2"].pulses == (pulses.Pulse(1, math.pi / 2, math.pi),)
    assert by_id["M5"].mapping == {2: 4, 3: 10}
    assert by_id["M5"].pulses == (pulses.Pulse(2, math.pi / 2, 0.0),
                                  pulses.Pulse(1, pulses.ALPHA, 0.0))


def test_compile_chronological_order(settings):
    by_id = {s.id: s for s in settings}
    assert np.allclose(pulses.compile_setting(by_id["M1"]), np.eye(3))
    assert np.allclose(pulses.compile_setting(by_id["M2"]),
                       rotation(1, math.pi / 2, math.pi))
    u4 = pulses.compile_setting(by_id["M4"])
    expected = rotation(1, math.pi / 2, math.pi) @ rotation(2, math.pi, math.pi)
    assert np.allclose(u4, expected, atol=1e-12)
    # v9 must land on |1> up to phase
    assert abs(u4[0, :] @ ray_unit(9)) == pytest.approx(1.0, abs=1e-12)


def test_shared_matrices_are_read_only(settings):
    """A pulse-free setting compiles to the shared `linalg.IDENTITY`, which
    is also the swap of slot 3 and enters every effects build and `prepare`:
    an in-place edit through a compiled unitary, or of the detection
    projectors, raises instead of corrupting every later build."""
    by_id = {s.id: s for s in settings}
    tomography_identity = next(s for s in tomography.tomography_settings() if not s.pulses)
    for u in (pulses.compile_setting(by_id["M1"]), pulses.compile_setting(tomography_identity)):
        with pytest.raises(ValueError, match="read-only"):
            u[0, 0] = 0.0
    for shared in (linalg.IDENTITY, simulate.DARK, simulate.EYE, *simulate.SWAP.values()):
        with pytest.raises(ValueError, match="read-only"):
            shared[0, 0] = 0.5
    assert np.array_equal(pulses.compile_setting(by_id["M1"]), np.eye(3))


def test_all_mappings_verify(settings):
    """The whole table proves exactly, and so does each setting on its own,
    at its own chain depth."""
    assert pulses.verify_all_settings(settings) is None
    for s in settings:
        pulses.verify_all_settings([s])


SQRT = np.array([1, math.sqrt(2), math.sqrt(3), math.sqrt(6)])


def test_exact_angles_lie_on_the_unit_circle():
    """(6 cos)^2 + (6 sin)^2 = 36 for every exact angle, multiplied in
    Q(sqrt2, sqrt3), and each entry is 6 cos, 6 sin of the keyed float."""
    for theta, (c, s) in pulses.EXACT_ANGLES.items():
        square = pulses._times(*c) @ c + pulses._times(*s) @ s
        assert square.tolist() == [36, 0, 0, 0]
        assert SQRT @ c / 6 == pytest.approx(math.cos(theta / 2), abs=1e-15)
        assert SQRT @ s / 6 == pytest.approx(math.sin(theta / 2), abs=1e-15)
    for phi, e in pulses.EXACT_PHASES.items():
        assert np.exp(1j * phi) == pytest.approx(e, abs=1e-15)


def test_settings_pulses_have_exact_angles(settings):
    pulse_set = {p for s in settings for p in s.pulses}
    assert {p.theta for p in pulse_set} == set(pulses.EXACT_ANGLES)
    assert {p.phi for p in pulse_set} == set(pulses.EXACT_PHASES)


def test_exact_pulse_matrices_are_the_float_pulses(settings):
    """Each exact pulse, divided by 6 and evaluated in floats, is the
    `pulse_matrix` that `compile` and `simulate` use, the swaps that
    `simulate.SWAP` detects with included: the proof is about the very
    floats of every schedule and count."""
    swaps = {pulses.swap_pulse(b) for b in (1, 2)}
    for p in {p for s in settings for p in s.pulses} | swaps:
        exact = pulses.exact_pulse_matrix(p)
        assert exact.dtype == np.int64 and exact.shape == (12, 12)
        # Column 0 of each 4x4 block holds that entry's coordinates.
        coords = exact.reshape(3, 4, 3, 4)[:, :, :, 0]
        floats = np.einsum("ikj,k->ij", coords, SQRT) / 6
        assert np.abs(floats - pulses.pulse_matrix(p)).max() <= 1e-15
        with pytest.raises(ValueError):
            exact[0, 0] = 0


def _with_m5(settings, *m5_pulses):
    return [dataclasses.replace(s, pulses=m5_pulses) if s.id == "M5" else s
            for s in settings]


@pytest.mark.parametrize("theta, phi", [
    (pulses.ALPHA + 1e-12, 0.0), (pulses.ALPHA + 4e-5, 0.0), (pulses.ALPHA, math.pi / 2)])
def test_inexact_pulse_angle_is_refused(settings, theta, phi):
    """A miscalibration far below what an overlap check in floats resolves,
    and a phase outside {0, pi}, are refused by name."""
    broken = _with_m5(settings, pulses.Pulse(2, math.pi / 2, 0.0), pulses.Pulse(1, theta, phi))
    with pytest.raises(ValueError, match="setting M5: a pulse angle is not in the exact set"):
        pulses.verify_all_settings(broken)


def test_swapped_exact_angle_misses_its_ray(settings):
    """alpha and pi - alpha are both exact; swapping them on M5 sends v10
    elsewhere, and the proof names the ray and the basis state."""
    broken = _with_m5(settings, pulses.Pulse(2, math.pi / 2, 0.0),
                      pulses.Pulse(1, math.pi - pulses.ALPHA, 0.0))
    with pytest.raises(ValueError, match=r"setting M5: ray v10 misses basis state \|3>"):
        pulses.verify_all_settings(broken)


@pytest.mark.parametrize("sid, k, miss", [
    ("M9", 0, "v6 misses basis state |1>"), ("M9", 1, "v6 misses basis state |1>"),
    ("M9", 2, "v12 misses basis state |3>"), ("M10", 0, "v6 misses basis state |1>"),
    ("M10", 1, "v6 misses basis state |1>"), ("M10", 2, "v13 misses basis state |2>"),
    ("M15", 0, "v10 misses basis state |1>"), ("M15", 1, "v10 misses basis state |1>"),
    ("M15", 2, "v10 misses basis state |1>"), ("M16", 0, "v9 misses basis state |2>"),
    ("M16", 1, "v9 misses basis state |2>"), ("M16", 2, "v11 misses basis state |3>")])
def test_flipped_phase_in_a_three_pulse_setting_is_named(settings, sid, k, miss):
    """Pulse k of a three-pulse setting with its phase flipped (0 <-> pi, both
    exact) is carried through every later pulse of the chain, and the proof
    names the setting, the first ray that misses and its basis state."""
    i = [s.id for s in settings].index(sid)
    chain = list(settings[i].pulses)
    chain[k] = dataclasses.replace(chain[k], phi=0.0 if chain[k].phi else math.pi)
    broken = settings[:i] + [dataclasses.replace(settings[i], pulses=tuple(chain))] \
        + settings[i + 1:]
    with pytest.raises(ValueError) as exc:
        pulses.verify_all_settings(broken)
    assert str(exc.value) == f"setting {sid}: ray {miss}"


def test_verify_named_examples(settings):
    by_id = {s.id: s for s in settings}
    u2 = pulses.compile_setting(by_id["M2"])
    assert abs(u2[0, :] @ ray_unit(5)) == pytest.approx(1.0, abs=1e-12)
    u5 = pulses.compile_setting(by_id["M5"])
    assert abs(u5[2, :] @ ray_unit(10)) == pytest.approx(1.0, abs=1e-12)


def test_compatibility_survives_compilation(settings):
    """Mapped projectors become diagonal basis projectors in the rotated frame."""
    for s in settings:
        u = pulses.compile_setting(s)
        for basis, ray in s.mapping.items():
            rotated = u @ linalg.projector_from_ray(RAYS[ray]) @ linalg.adjoint(u)
            target = np.zeros((3, 3), dtype=complex)
            target[basis - 1, basis - 1] = 1.0
            assert linalg.frobenius_distance(rotated, target) < 1e-9


def test_edge_coverage(settings):
    model = build_model()
    assert pulses.covered_pairs(settings) == set(model.edges)


def test_swap_pulse():
    for b in (1, 2):
        p = pulses.swap_pulse(b)
        m = pulses.pulse_matrix(p)
        assert abs(m[2, b - 1]) == pytest.approx(1.0, abs=1e-12)
        # populations return after a double swap
        assert abs((m @ m)[b - 1, b - 1]) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        pulses.swap_pulse(3)


@pytest.mark.parametrize("channel, theta, phi, message", [
    (0, 0.0, 0.0, "pulse channel must be 1 or 2"),
    (3, 1.0, 1.0, "pulse channel must be 1 or 2"),
    (1, 2 * math.pi, 0.0, "pulse angles must lie in [0, 2*pi)"),
    (2, 1.0, -0.1, "pulse angles must lie in [0, 2*pi)"),
    (1, math.nan, 0.0, "pulse angles must lie in [0, 2*pi)"),
    (1, 0.0, math.nan, "pulse angles must lie in [0, 2*pi)"),
])
def test_pulse_refuses_a_bad_channel_or_angle(channel, theta, phi, message):
    """A pulse drives channel 1 or 2 with both angles in [0, 2*pi): 2*pi,
    a negative phase and NaN are each refused."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        pulses.Pulse(channel, theta, phi)


def test_rays_and_pulses_are_their_formulas(settings):
    """Each unit ray is its integer direction over its norm, and each pulse
    is the two-level rotation cos, e^(i phi) sin, -e^(-i phi) sin on its
    channel's levels, bit for bit. `simulate.SWAP`'s two pulses, which every
    effects build shares, are these and read-only."""
    for r in RAYS:
        v = np.asarray(RAYS[r], dtype=complex)
        assert ray_unit(r).tobytes() == (v / np.linalg.norm(v)).tobytes()
    swaps = [pulses.swap_pulse(b) for b in (1, 2)]
    for p in [p for s in settings for p in s.pulses] + swaps:
        c, s = math.cos(p.theta / 2), math.sin(p.theta / 2)
        e = np.exp(1j * p.phi)
        rows = ([[c, 0, e * s], [0, 1, 0], [-s / e, 0, c]] if p.channel == 1
                else [[1, 0, 0], [0, c, -s / e], [0, e * s, c]])
        assert pulses.pulse_matrix(p).tobytes() == np.array(rows, dtype=complex).tobytes()
    for b, p in zip((1, 2), swaps):
        assert simulate.SWAP[b].tobytes() == pulses.pulse_matrix(p).tobytes()
        assert not simulate.SWAP[b].flags.writeable


def test_schedule_durations():
    assert pulses.pulse_duration_us(pulses.Pulse(1, math.pi / 2, math.pi)) \
        == pytest.approx(7.375)
    assert pulses.pulse_duration_us(pulses.Pulse(2, math.pi, 0)) \
        == pytest.approx(14.75)
    by_id = {s.id: s for s in pulses.settings_table()}
    text = pulses.format_schedule(by_id["M1"])
    assert "cool    1000.0000" in text
    assert "pump    3.0000" in text
    assert "pulse" not in text  # M1 has no rotations
    assert "duration_us=7.3750" in pulses.format_schedule(by_id["M2"])


def test_schedule_names_transitions_and_field():
    """Each schedule's header states the transition frequencies and the
    magnetic field it assumes, read from the module's hardware constants."""
    for s in pulses.settings_table():
        header = pulses.format_schedule(s).splitlines()[1]
        assert header == (f"# ch1 |1>-|3> omega1/2pi={pulses.OMEGA1_MHZ:.4f} MHz  "
                          f"ch2 |2>-|3> (omega2-omega1)/2pi="
                          f"{pulses.OMEGA2_OFFSET_MHZ:.4f} MHz  "
                          f"B={pulses.B_FIELD_GAUSS:.4f} G")
    assert "omega1/2pi=12642.8213 MHz" in header
    assert "(omega2-omega1)/2pi=7.6372 MHz" in header and "B=5.4550 G" in header


def test_setting_mapping_is_read_only_and_hash_is_lazy():
    """The mapping is a read-only copy, so the content hash, computed on
    first use and then kept, cannot go stale; building the table computes
    no hash. The table is built once per process, so the cache is cleared to
    watch a build."""
    pulses._settings.cache_clear()
    table = pulses.settings_table()
    assert all("_content_hash" not in vars(s) for s in table)
    m2 = table[1]
    with pytest.raises(TypeError):
        m2.mapping[1] = 13
    with pytest.raises(AttributeError):
        m2.mapping.clear()
    source = {3: 8, 2: 2, 1: 5}  # M2's mapping in another insertion order
    copy = dataclasses.replace(m2, mapping=source)
    source[1] = 13
    assert copy.mapping == {1: 5, 2: 2, 3: 8}
    assert copy == m2 and hash(copy) == hash(m2)
    assert "_content_hash" in vars(m2)
    assert hash(dataclasses.replace(m2, mapping={1: 13, 2: 2, 3: 8})) != hash(m2)


def test_settings_table_is_a_fresh_list_of_the_same_settings():
    """The settings are built once per process; each call hands out its own
    list of them, so a caller's edit never reaches the next caller."""
    first, second = pulses.settings_table(), pulses.settings_table()
    assert first is not second and first == second and len(first) == 16
    assert all(a is b for a, b in zip(first, second))
    first.append(pulses.MeasurementSetting("M17", {1: 1}, ()))
    assert len(pulses.settings_table()) == 16


def test_faulty_mapping_fails_verification(settings):
    broken = pulses.MeasurementSetting("Mx", {1: 13}, ())
    with pytest.raises(ValueError, match="Mx"):
        pulses.verify_all_settings([broken])
    with pytest.raises(ValueError, match=r"setting Mx: ray v13 misses basis state \|1>"):
        pulses.verify_all_settings(settings + [broken])
