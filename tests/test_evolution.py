"""Lattice evolution: spectral vs direct, packets, velocities, tiling."""

import numpy as np
import pytest

from qca import catalog, evolution, weyl
from qca.automaton import assemble
from qca.cayley import build_presentation, make_tiling
from qca.errors import PacketBoundaryError, ZoneLeakError
from qca.pauli import maxabs, principal_phase

from oracles import (every_mode_plan, identity_descriptor, lattice_moments, packet_velocity,
                     spectral_steps, stream_snapshot)


def _rand_state(descriptor, sizes, seed=0):
    lattice = evolution.LatticeSpec(presentation=descriptor.presentation, sizes=sizes)
    rng = np.random.default_rng(seed)
    return evolution.random_state(lattice, descriptor.internal_dim, rng)


def test_identity_rule_is_identity():
    p = build_presentation("square_2d")
    d = identity_descriptor(p)
    state = _rand_state(d, (6, 6))
    out = spectral_steps(state, d, 7)
    assert maxabs(out.amplitudes - state.amplitudes) < 1e-13
    out2 = evolution.step_direct(state, d)
    assert maxabs(out2.amplitudes - state.amplitudes) == 0.0


def test_zero_steps_is_identity():
    plan = every_mode_plan(catalog.build_descriptor("weyl-1d"), (8,))
    hat = np.random.default_rng(0).normal(size=(8, 2)) + 0j
    out = plan.advance(hat, 0)
    assert np.array_equal(out, hat)
    assert not np.may_share_memory(out, hat)


def test_single_site_spreads_to_neighbors():
    d = catalog.build_descriptor("weyl-1d")
    lattice = evolution.LatticeSpec(presentation=d.presentation, sizes=(16,))
    amps = np.zeros((16, 2), dtype=complex)
    amps[5, 0] = 1.0
    state = evolution.FieldState(lattice=lattice, internal_dim=2, amplitudes=amps)
    out = evolution.step_direct(state, d)
    support = np.nonzero(np.sum(np.abs(out.amplitudes) ** 2, axis=1) > 1e-20)[0]
    assert set(support) <= {4, 6}


def test_norm_preserved_by_direct_step():
    rng = np.random.default_rng(1)
    for name in ("weyl-2d", "bcc-a-plus", "dirac-3d"):
        d = catalog.build_descriptor(name)
        sizes = (6,) * d.presentation.dimension
        state = _rand_state(d, sizes, seed=2)
        out = evolution.step_direct(state, d)
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12


@pytest.mark.parametrize(
    "name,sizes",
    [
        ("weyl-1d", (32,)),
        ("weyl-2d", (12, 12)),
        ("bcc-a-plus", (8, 8, 8)),
        ("dirac-2d", (10, 10)),
    ],
)
def test_spectral_matches_direct(name, sizes):
    d = catalog.build_descriptor(name)
    state = _rand_state(d, sizes, seed=3)
    spectral = spectral_steps(state, d, 5)
    direct = state
    for _ in range(5):
        direct = evolution.step_direct(direct, d)
    assert maxabs(spectral.amplitudes - direct.amplitudes) < 1e-10
    assert spectral.time == direct.time == 5


def test_large_step_eigendecomposition_path():
    d = catalog.build_descriptor("weyl-1d")
    state = _rand_state(d, (16,), seed=4)
    slow = state
    for _ in range(100):
        slow = evolution.step_direct(slow, d)
    fast = spectral_steps(state, d, 100)
    assert maxabs(fast.amplitudes - slow.amplitudes) < 1e-9
    drift = spectral_steps(state, d, 1000)
    assert abs(np.linalg.norm(drift.amplitudes) - 1.0) < 1e-10


def test_translation_covariance():
    d = catalog.build_descriptor("weyl-2d")
    state = _rand_state(d, (8, 8), seed=5)
    shifted = evolution.FieldState(
        lattice=state.lattice,
        internal_dim=2,
        amplitudes=np.roll(state.amplitudes, shift=(2, 3), axis=(0, 1)),
    )
    a = evolution.step_direct(shifted, d).amplitudes
    b = np.roll(evolution.step_direct(state, d).amplitudes, shift=(2, 3), axis=(0, 1))
    assert maxabs(a - b) < 1e-13


def test_dimension_mismatch_errors():
    d1 = catalog.build_descriptor("weyl-1d")
    d2 = catalog.build_descriptor("weyl-2d")
    with pytest.raises(ValueError):
        every_mode_plan(d2, (8,))
    with pytest.raises(ValueError):
        evolution.step_direct(_rand_state(d1, (8,)), d2)


def test_packet_normalized_and_localized():
    d = catalog.build_descriptor("weyl-1d")
    lattice = evolution.LatticeSpec(presentation=d.presentation, sizes=(128,))
    spec = evolution.WavePacketSpec(
        center_k=(0.5,), sigma_k=0.08, center_x=(40,), branch="plus"
    )
    state = evolution.make_packet(spec, d, lattice)
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12
    means = lattice_moments(state).means
    assert abs(means[0] - 40.0) < 0.5


def test_packet_translation_property():
    d = catalog.build_descriptor("weyl-1d")
    lattice = evolution.LatticeSpec(presentation=d.presentation, sizes=(64,))
    base = evolution.make_packet(
        evolution.WavePacketSpec((0.6,), 0.1, (20,), "plus"), d, lattice
    )
    moved = evolution.make_packet(
        evolution.WavePacketSpec((0.6,), 0.1, (27,), "plus"), d, lattice
    )
    assert maxabs(np.roll(base.amplitudes, 7, axis=0) - moved.amplitudes) < 1e-12


def test_packet_phase_in_narrow_limit():
    # A near-plane-wave packet picks up e^{-i omega} per step on the
    # positive-energy branch.
    d = catalog.build_descriptor("weyl-1d")
    lattice = evolution.LatticeSpec(presentation=d.presentation, sizes=(64,))
    k0 = 2.0 * np.pi * 10 / 64
    spec = evolution.WavePacketSpec((k0,), 0.01, (32,), "plus")
    state = evolution.make_packet(spec, d, lattice)
    stepped = spectral_steps(state, d, 1)
    omega = weyl.dispersion(weyl.WeylVariant(1), [k0]).omega[0]
    predicted = np.exp(-1j * omega) * state.amplitudes
    assert maxabs(stepped.amplitudes - predicted) < 1e-6


def test_packet_zone_leak_error():
    d = catalog.build_descriptor("weyl-1d")
    lattice = evolution.LatticeSpec(presentation=d.presentation, sizes=(64,))
    with pytest.raises(ZoneLeakError):
        evolution.make_packet(
            evolution.WavePacketSpec((0.0,), 1.2, (32,), "plus"), d, lattice
        )


def test_packet_velocity_weyl1d_unit_speed():
    d = catalog.build_descriptor("weyl-1d")
    lattice = evolution.LatticeSpec(presentation=d.presentation, sizes=(512,))
    spec = evolution.WavePacketSpec((0.9,), 0.05, (128,), "plus")
    state = evolution.make_packet(spec, d, lattice)
    after = spectral_steps(state, d, 50)
    velocity = packet_velocity(state, after, 50)
    assert abs(velocity[0] - 1.0) < 0.01


def test_packet_velocity_at_stationary_point():
    # Interior critical point of the two-dimensional band: both closed-form
    # gradient factors vanish at k = (pi/sqrt2, pi/sqrt2).
    d = catalog.build_descriptor("weyl-2d")
    v = weyl.WeylVariant(2)
    k0 = np.array([np.pi / np.sqrt(2.0), np.pi / np.sqrt(2.0)])
    assert np.linalg.norm(weyl.dispersion(v, k0).group_velocity) < 1e-12
    lattice = evolution.LatticeSpec(presentation=d.presentation, sizes=(64, 64))
    spec = evolution.WavePacketSpec(tuple(k0), 0.08, (32, 32), "plus")
    state = evolution.make_packet(spec, d, lattice)
    after = spectral_steps(state, d, 12)
    velocity = packet_velocity(state, after, 12)
    assert np.linalg.norm(velocity) < 1e-3


def test_packet_boundary_error():
    d = catalog.build_descriptor("weyl-1d")
    lattice = evolution.LatticeSpec(presentation=d.presentation, sizes=(32,))
    spec = evolution.WavePacketSpec((0.7,), 0.03, (16,), "plus")
    # sigma_k = 0.03 gives a real-space width comparable to the lattice
    state = evolution.make_packet(spec, d, lattice)
    with pytest.raises(PacketBoundaryError):
        evolution.check_seam(lattice_moments(state), lattice.sizes)


def test_packet_boundary_error_on_nan_resultant():
    # A NaN resultant gives a NaN width, which the seam check must not pass.
    moments = evolution.Moments(1.0, np.array([16.0]), np.array([np.nan]))
    with pytest.raises(PacketBoundaryError):
        evolution.check_seam(moments, (32,))


def _packet(name, sizes, k0, sigma, x0, mass=None):
    d = catalog.build_descriptor(name, mass=mass)
    lattice = evolution.LatticeSpec(presentation=d.presentation, sizes=sizes)
    return evolution.packet_modes(evolution.WavePacketSpec(k0, sigma, x0), d, lattice)


@pytest.mark.parametrize("steps, stride, recorded", [
    (10, 3, [0, 3, 6, 9, 10]),
    (9, 3, [0, 3, 6, 9]),
    (10, 20, [0, 10]),
    (10, 0, list(range(11))),  # the default stride, steps // 50, is at least 1
    (120, 0, list(range(0, 121, 2))),
])
def test_run_records_every_stride_and_the_last_step(steps, stride, recorded):
    plan, hat = _packet("dirac-3d", (16, 16, 16), (0.3, 0.1, 0.0), 0.2, (8, 8, 8), mass=0.4)
    run = evolution.run(plan, hat, steps, stride, (8, 8, 8))
    assert [r.step for r in run.records] == recorded
    for record in run.records:
        # Each record reads the amplitudes advanced to its step, up to the
        # roundoff of advancing in strides rather than at once.
        want = evolution.mode_moments(plan.advance(hat, record.step), plan.modes)
        assert record.moments.norm == pytest.approx(want.norm, abs=1e-13)
        assert np.allclose(record.moments.resultants, want.resultants, atol=1e-12)
        # The position is the mean's image a whole number of periods away.
        periods = (record.position - want.means) / 16
        assert np.allclose(periods, np.round(periods), atol=1e-10)
    assert maxabs(run.hat - plan.advance(hat, steps)) < 1e-12


def test_run_unwraps_each_record_near_the_one_before():
    # Unit speed along axis 1 of 64 sites for 50 steps: the raw means wrap at
    # the seam, the recorded positions do not, and the velocity is their slope.
    plan, hat = _packet("weyl-1d", (64,), (0.5,), 0.1, (0,))
    run = evolution.run(plan, hat, 50, 1, (0,))
    positions = np.array([r.position[0] for r in run.records])
    assert np.all(np.abs(np.diff(positions) - 1.0) < 0.05)
    assert run.records[0].position[0] == pytest.approx(0.0, abs=1e-9)
    assert positions[-1] == pytest.approx(50.0, abs=0.5)
    assert run.velocity_error is None
    assert run.velocity[0] == (positions[-1] - positions[0]) / 50
    assert run.velocity[0] == pytest.approx(1.0, abs=0.01)


def test_run_at_the_seam_has_no_velocity():
    # sigma_k = 0.03 on 32 sites: the packet is as wide as the torus.
    plan, hat = _packet("weyl-1d", (32,), (0.7,), 0.03, (16,))
    run = evolution.run(plan, hat, 4, 0, (16,))
    assert run.velocity is None
    assert run.velocity_error == "packet mass within 3 sigma of the wrap seam on axis 0"
    assert [r.step for r in run.records] == [0, 1, 2, 3, 4]
    assert abs(run.records[-1].moments.norm - 1.0) < 1e-12


def test_plane_wave_interpolation_consistency():
    # exp(-i H_I t) at integer t equals t automaton steps on a lattice mode.
    d = catalog.build_descriptor("bcc-a-plus")
    v = weyl.WeylVariant(3)
    lattice = evolution.LatticeSpec(presentation=d.presentation, sizes=(8, 8, 8))
    theta = 2.0 * np.pi * np.array([1, 3, 2]) / 8.0
    k = d.presentation.k_of_theta(theta)
    sites = np.stack(np.meshgrid(*[np.arange(8)] * 3, indexing="ij"), axis=-1)
    phase = np.exp(1j * np.tensordot(sites, theta, axes=1))
    h = weyl.interpolating_hamiltonian(v, k)
    vals, vecs = np.linalg.eigh(h)
    spinor = vecs[:, 1]  # positive-energy branch
    amps = phase[..., None] * spinor
    amps /= np.linalg.norm(amps)
    state = evolution.FieldState(lattice=lattice, internal_dim=2, amplitudes=amps)
    t = 7
    stepped = spectral_steps(state, d, t)
    expected = amps * np.exp(-1j * vals[1] * t)
    assert maxabs(stepped.amplitudes - expected) < 1e-10


def test_tiling_identity_index():
    d = catalog.build_descriptor("weyl-1d")
    t = make_tiling(d.presentation, ((1,),))
    coarse = evolution.tile_descriptor(d, t)
    assert coarse.internal_dim == 2
    state = _rand_state(d, (8,), seed=6)
    regrouped = evolution.apply_tiling(state, t)
    assert regrouped.internal_dim == 2
    assert maxabs(regrouped.amplitudes - state.amplitudes) == 0.0


@pytest.mark.parametrize(
    "name,basis,sizes",
    [
        ("weyl-1d", ((2,),), (16,)),
        ("weyl-2d", ((2, 0), (0, 2)), (8, 8)),
        ("dirac-1d", ((2,),), (12,)),
    ],
)
def test_tiling_commuting_square(name, basis, sizes):
    d = catalog.build_descriptor(name)
    t = make_tiling(d.presentation, basis)
    coarse = evolution.tile_descriptor(d, t)
    assert coarse.internal_dim == d.internal_dim * t.index
    state = _rand_state(d, sizes, seed=7)
    lhs = evolution.apply_tiling(evolution.step_direct(state, d), t)
    rhs = evolution.step_direct(evolution.apply_tiling(state, t), coarse)
    assert maxabs(lhs.amplitudes - rhs.amplitudes) < 1e-12


def test_tiling_builds_coarse_presentation_once():
    d = catalog.build_descriptor("bcc-a-plus")
    t = make_tiling(d.presentation, ((2, 0, 0), (0, 2, 0), (0, 0, 2)))
    state = _rand_state(d, (4, 4, 4), seed=1)
    coarse = evolution.tile_descriptor(d, t).presentation
    assert evolution.apply_tiling(state, t).lattice.presentation is coarse
    assert t.coarse_presentation is coarse


def test_tiling_band_folding_1d():
    d = catalog.build_descriptor("weyl-1d")
    t = make_tiling(d.presentation, ((2,),))
    coarse = evolution.tile_descriptor(d, t)
    rng = np.random.default_rng(8)
    for theta_prime in rng.uniform(-np.pi, np.pi, size=10):
        a = assemble(coarse.rule, coarse.presentation, [theta_prime])
        coarse_phases = np.sort(principal_phase(np.linalg.eigvals(a)))
        fine = []
        for fold in range(2):
            th = theta_prime / 2.0 + np.pi * fold
            b = assemble(d.rule, d.presentation, [th])
            fine.extend(np.linalg.eigvals(b))
        fine_phases = np.sort(principal_phase(np.array(fine)))
        assert np.max(np.abs(coarse_phases - fine_phases)) < 1e-10


def test_tiling_band_folding_2d():
    d = catalog.build_descriptor("weyl-2d")
    t = make_tiling(d.presentation, ((2, 0), (0, 2)))
    coarse = evolution.tile_descriptor(d, t)
    rng = np.random.default_rng(9)
    for _ in range(5):
        theta_prime = rng.uniform(-np.pi, np.pi, size=2)
        a = assemble(coarse.rule, coarse.presentation, theta_prime)
        coarse_phases = np.sort(principal_phase(np.linalg.eigvals(a)))
        fine = []
        for fx in range(2):
            for fy in range(2):
                th = theta_prime / 2.0 + np.pi * np.array([fx, fy])
                b = assemble(d.rule, d.presentation, th)
                fine.extend(np.linalg.eigvals(b))
        fine_phases = np.sort(principal_phase(np.array(fine)))
        assert np.max(np.abs(coarse_phases - fine_phases)) < 1e-10


def test_tiling_divisibility_error():
    d = catalog.build_descriptor("weyl-1d")
    t = make_tiling(d.presentation, ((2,),))
    state = _rand_state(d, (15,), seed=10)
    with pytest.raises(ValueError):
        evolution.apply_tiling(state, t)


def test_snapshot_roundtrip(tmp_path):
    from qca import serialize

    d = catalog.build_descriptor("weyl-2d")
    state = _rand_state(d, (6, 6), seed=11)
    state = spectral_steps(state, d, 3)
    path = tmp_path / "state.qcas"
    stream_snapshot(state, path)
    loaded = serialize.load_snapshot(path, d.presentation)
    assert loaded.time == 3
    assert loaded.lattice.sizes == (6, 6)
    assert maxabs(loaded.amplitudes - state.amplitudes) == 0.0
    # deterministic bytes
    path2 = tmp_path / "state2.qcas"
    stream_snapshot(state, path2)
    assert path.read_bytes() == path2.read_bytes()
    with open(path, "rb") as fh:
        assert fh.read(4) == b"QCAS"


def _snapshot_bytes(tmp_path):
    d = catalog.build_descriptor("weyl-2d")
    path = tmp_path / "state.qcas"
    stream_snapshot(_rand_state(d, (4, 6), seed=12), path)
    return d, path, path.read_bytes()


@pytest.mark.parametrize(
    "mangle,match",
    [
        (lambda raw: raw + b"\x00", "length"),
        (lambda raw: raw[:-1], "length"),
        (lambda raw: raw[:14], "truncated"),
        (lambda raw: raw[:4], "truncated"),
    ],
    ids=["trailing-byte", "short-body", "cut-in-sizes", "magic-only"],
)
def test_snapshot_rejects_bad_length(tmp_path, mangle, match):
    from qca import serialize

    d, path, raw = _snapshot_bytes(tmp_path)
    path.write_bytes(mangle(raw))
    with pytest.raises(ValueError, match=match):
        serialize.load_snapshot(path, d.presentation)


def test_snapshot_rejects_dimension_mismatch(tmp_path):
    from qca import serialize

    _, path, _ = _snapshot_bytes(tmp_path)
    line = catalog.build_descriptor("weyl-1d").presentation
    with pytest.raises(ValueError, match="snapshot has dimension 2"):
        serialize.load_snapshot(path, line)
