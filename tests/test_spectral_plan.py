"""SpectralPlan and the packet against independent oracles: step_direct,
real-space moments, the per-mode eig + qr and batched eig branch projectors,
the dense envelope, and numpy.fft.ifftn for the pruned inverse FFT."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from qca import catalog, evolution, serialize
from qca.automaton import AutomatonDescriptor, TransitionRule
from qca.cayley import build_presentation, make_tiling
from qca.errors import ZoneLeakError
from qca.pauli import maxabs

from oracles import every_mode_plan, lattice_moments, same_bits, save_snapshot, spectral_steps

CHECKPOINTS = (1, 65, 10_000)
# The closed form and step_direct each round once per step at most; 10^4
# repeated steps accumulate about 1e-12.
TOL = {1: 1e-12, 65: 1e-12, 10_000: 1e-11}


def _descriptor(name, mass=None):
    if name == "weyl-1d-x2":
        base = catalog.build_descriptor("weyl-1d")
        return evolution.tile_descriptor(base, make_tiling(base.presentation, ((2,),)))
    return catalog.build_descriptor(name, mass=mass)


def _state(descriptor, sizes, seed=0):
    lattice = evolution.LatticeSpec(presentation=descriptor.presentation, sizes=sizes)
    return evolution.random_state(
        lattice, descriptor.internal_dim, np.random.default_rng(seed)
    )


def _constant_rule(matrix):
    """A rule whose step operator is `matrix` on every mode of the line."""
    return AutomatonDescriptor(
        presentation=_descriptor("weyl-1d").presentation,
        rule=TransitionRule(entries={"e": matrix}, internal_dim=len(matrix)),
    )


def _direct_checkpoints(state, descriptor, checkpoints=CHECKPOINTS):
    """Amplitudes after each checkpoint count of step_direct applications.

    The step is assembled once as a sparse matrix whose columns are
    step_direct of the unit states, so that 10^4 steps stay cheap.
    """
    dim = state.amplitudes.size
    columns = []
    for j in range(dim):
        unit = np.zeros(dim, dtype=complex)
        unit[j] = 1.0
        basis_state = evolution.FieldState(
            lattice=state.lattice, internal_dim=state.internal_dim,
            amplitudes=unit.reshape(state.amplitudes.shape),
        )
        columns.append(evolution.step_direct(basis_state, descriptor).amplitudes.ravel())
    step = scipy.sparse.csr_matrix(np.array(columns).T)
    vec = state.amplitudes.ravel()
    out, done = {}, 0
    for n in sorted(checkpoints):
        for _ in range(n - done):
            vec = step @ vec
        done = n
        out[n] = vec.reshape(state.amplitudes.shape)
    return out


def _assert_matches_direct(state, descriptor):
    direct = _direct_checkpoints(state, descriptor)
    for n in CHECKPOINTS:
        spectral = spectral_steps(state, descriptor, n)
        assert spectral.time == state.time + n
        err = maxabs(spectral.amplitudes - direct[n])
        assert err <= TOL[n], f"{n} steps: {err:.2e}"


@pytest.mark.parametrize(
    "name,mass,sizes,closed_form",
    [
        ("weyl-1d", None, (16,), True),
        ("bcc-a-plus", None, (6, 6, 6), True),
        ("dirac-1d", None, (16,), True),
        ("dirac-3d", 0.3, (6, 6, 6), True),
        ("weyl-1d-x2", None, (8,), False),
    ],
)
def test_plan_matches_direct(name, mass, sizes, closed_form):
    descriptor = _descriptor(name, mass)
    plan = every_mode_plan(descriptor, sizes)
    assert plan.closed_form is closed_form
    _assert_matches_direct(_state(descriptor, sizes, seed=1), descriptor)


def test_dirac_modes_are_doubly_degenerate():
    descriptor = _descriptor("dirac-3d", 0.3)
    plan = every_mode_plan(descriptor, (6, 6, 6))
    phases = np.sort(np.angle(np.linalg.eigvals(plan.mats.reshape(-1, 4, 4))), axis=-1)
    assert maxabs(phases[:, 1] - phases[:, 0]) < 1e-12
    assert maxabs(phases[:, 3] - phases[:, 2]) < 1e-12
    assert maxabs(phases[:, 3] - plan.omega.ravel()) < 1e-12


def test_band_touching_mode():
    # theta = 0 of the massless walk: W = I, sin(w) = 0 up to roundoff, and the
    # closed form's sin(nw)/sin(w) takes its limit n c^(n-1).
    descriptor = _descriptor("weyl-1d")
    plan = every_mode_plan(descriptor, (16,))
    assert plan.sin[0] < 1e-15 and abs(plan.cos[0] - 1.0) < 1e-15
    state = _state(descriptor, (16,), seed=2)
    flat = np.broadcast_to(state.amplitudes.mean(axis=0), state.amplitudes.shape)
    _assert_matches_direct(replace(state, amplitudes=flat.copy()), descriptor)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_exact_limit_at_plus_minus_identity(sign):
    plan = every_mode_plan(_constant_rule(sign * np.eye(2, dtype=complex)), (8,))
    assert np.all(plan.sin == 0.0)
    hat = np.random.default_rng(3).normal(size=(8, 2)) + 0j
    for n in CHECKPOINTS:
        assert maxabs(plan.advance(hat, n) - sign ** n * hat) == 0.0
    # No branch is defined: both projectors keep the whole space.
    for branch in ("plus", "minus"):
        assert np.array_equal(plan.project(hat[0], branch), np.broadcast_to(hat[0], hat.shape))


def _conjugated(descriptor, unitary):
    entries = {
        label: unitary @ block @ unitary.conj().T
        for label, block in descriptor.rule.entries.items()
    }
    return AutomatonDescriptor(
        presentation=descriptor.presentation,
        rule=TransitionRule(entries=entries, internal_dim=descriptor.internal_dim),
    )


def _random_unitary(dim, seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


@settings(max_examples=8, deadline=None)
@given(
    name=st.sampled_from(["weyl-1d", "dirac-1d", "weyl-2d"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_conjugated_rules_match_direct(name, seed):
    base = _descriptor(name)
    descriptor = _conjugated(base, _random_unitary(base.internal_dim, seed))
    sizes = (16,) if base.presentation.dimension == 1 else (4, 4)
    assert every_mode_plan(descriptor, sizes).closed_form
    _assert_matches_direct(_state(descriptor, sizes, seed=seed), descriptor)


@pytest.mark.parametrize(
    "name,mass,sizes,k0,sigma",
    [
        ("weyl-1d", None, (64,), (0.5,), 0.1),
        ("bcc-a-plus", None, (16, 16, 16), (0.3, -0.2, 0.4), 0.25),
        ("dirac-3d", 0.4, (16, 16, 16), (0.2, 0.1, -0.3), 0.25),
    ],
)
def test_mode_moments_match_real_space(name, mass, sizes, k0, sigma):
    descriptor = _descriptor(name, mass)
    lattice = evolution.LatticeSpec(presentation=descriptor.presentation, sizes=sizes)
    spec = evolution.WavePacketSpec(k0, sigma, tuple(n // 3 for n in sizes), "plus")
    packet = spectral_steps(
        evolution.make_packet(spec, descriptor, lattice), descriptor, 3
    )
    for state in (packet, _state(descriptor, sizes, seed=4)):
        hat = np.fft.fftn(state.amplitudes, axes=tuple(range(len(sizes))))
        hat = hat.reshape(-1, state.internal_dim)
        moments = evolution.mode_moments(hat, evolution.Modes(sizes))
        means = lattice_moments(state).means
        real = lattice_moments(state)
        wrapped = np.mod(moments.means - means + np.asarray(sizes) / 2, sizes)
        assert maxabs(wrapped - np.asarray(sizes) / 2) < 1e-12
        assert maxabs(moments.resultants - real.resultants) < 1e-12
        assert abs(moments.norm - np.linalg.norm(state.amplitudes)) < 1e-12


def _first_moments(moments, sizes):
    return moments.resultants * np.exp(2j * np.pi * moments.means / np.asarray(sizes))


def _assert_moments_match(moments, state):
    # The circular first moments R exp(2 pi i mean / n) rather than the means:
    # a mean is ill-conditioned once the packet has spread round the torus
    # (R -> 0 after 10^4 steps on 6 sites).
    sizes = state.lattice.sizes
    real = lattice_moments(state)
    assert maxabs(_first_moments(moments, sizes) - _first_moments(real, sizes)) < 1e-12
    assert abs(moments.norm - np.linalg.norm(state.amplitudes)) < 1e-12


_FACE = 0.97 * np.sqrt(3.0) * np.pi / 2.0
SUPPORT_CASES = {
    # k0 = 0 (a band-touching mode): the support wraps across mode index 0.
    "bcc-wraps-index-0": ("bcc-a-plus", None, (6, 6, 6), (0.0, 0.0, 0.0), 0.2),
    # 3% inside the zone face k . (1, 1, 0) = sqrt(3) pi, where theta_1 = pi.
    "bcc-zone-face": ("bcc-a-plus", None, (6, 6, 6), (_FACE, _FACE, 0.0), 0.2),
    "dirac-degenerate": ("dirac-3d", 0.3, (6, 6, 6), (0.2, 0.1, -0.3), 0.25),
    # The envelope exceeds 1e-14 on every mode and is 6e-14 at the seam.
    "weyl-1d-whole-grid": ("weyl-1d", None, (16,), (0.5,), 0.285),
}


@pytest.mark.parametrize("case", sorted(SUPPORT_CASES))
def test_support_plan_matches_dense_plan_and_direct(case):
    name, mass, sizes, k0, sigma = SUPPORT_CASES[case]
    descriptor = _descriptor(name, mass)
    lattice = evolution.LatticeSpec(presentation=descriptor.presentation, sizes=sizes)
    spec = evolution.WavePacketSpec(k0, sigma, tuple(n // 3 for n in sizes), "plus")
    plan, hat = evolution.packet_modes(spec, descriptor, lattice)
    held = len(plan.modes.index)
    coords = np.unravel_index(plan.modes.index, sizes)
    if case == "weyl-1d-whole-grid":
        assert held == plan.modes.count
    else:
        assert held < plan.modes.count / 2
    if case == "bcc-wraps-index-0":
        assert all({0, n - 1} <= set(c.tolist()) for c, n in zip(coords, sizes))
    if case == "bcc-zone-face":
        pres = descriptor.presentation
        assert pres.bz.contains(k0) and not pres.bz.contains(np.asarray(k0) / 0.95)
    state = evolution.make_packet(spec, descriptor, lattice)
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-14
    _assert_moments_match(evolution.mode_moments(hat, plan.modes), state)
    direct = _direct_checkpoints(state, descriptor)
    for n in CHECKPOINTS:
        advanced = plan.advance(hat, n)
        support = evolution.FieldState(lattice, hat.shape[-1], plan.modes.ifftn(advanced), n)
        dense = spectral_steps(state, descriptor, n)
        for other in (dense.amplitudes, direct[n]):
            err = maxabs(support.amplitudes - other)
            assert err <= TOL[n], f"{n} steps: {err:.2e}"
        _assert_moments_match(evolution.mode_moments(advanced, plan.modes), support)


def _qr_projector(matrix, branch):
    """Per-mode projector as built before the batched one: eig, then qr."""
    vals, vecs = np.linalg.eig(matrix)
    phases = np.angle(vals)
    want = phases <= 0 if branch == "plus" else phases > 0
    if not np.any(want):
        want = ~want
    q, _ = np.linalg.qr(vecs[:, want])
    return q @ q.conj().T


@pytest.mark.parametrize("branch", ["plus", "minus"])
@pytest.mark.parametrize(
    "name,mass", [("bcc-a-plus", None), ("dirac-3d", 0.3), ("weyl-1d-x2", None)]
)
def test_batched_projector_matches_per_mode(name, mass, branch):
    descriptor = _descriptor(name, mass)
    sizes = (8,) if descriptor.presentation.dimension == 1 else (6, 6, 6)
    plan = every_mode_plan(descriptor, sizes)
    s = descriptor.internal_dim
    mats = plan.mats.reshape(-1, s, s)
    vals = np.linalg.eigvals(mats)
    # Band-touching modes (W = +-I) have no branch; they are tested below.
    gaps = np.abs(vals[:, :, None] - vals[:, None, :]) + np.eye(s)
    phases = np.angle(vals)
    split = np.any((gaps < 1e-6) & ((phases[:, :, None] > 0) != (phases[:, None, :] > 0)),
                   axis=(1, 2))
    batched = evolution._branch_projectors(mats[~split], branch)
    for proj, matrix in zip(batched, mats[~split]):
        assert maxabs(proj - _qr_projector(matrix, branch)) < 1e-12


def test_band_touching_projector_is_whole_space():
    # W = I up to roundoff: the eigenphases straddle 0 by ~1e-16 and the
    # branch is undefined, so both branches keep the whole space.
    noise = 1e-16 * np.array([[1.0, 2.0 - 1.0j], [-2.0 - 1.0j, -1.0]])
    vec = np.array([0.6, -0.8j])
    for mat in (np.eye(2) + 1j * noise, np.eye(2) - 1j * noise):
        plan = every_mode_plan(_constant_rule(mat), (4,))
        assert plan.closed_form
        for branch in ("plus", "minus"):
            assert np.array_equal(plan.project(vec, branch), np.broadcast_to(vec, (4, 2)))
            assert maxabs(evolution._branch_projectors(mat[None], branch) - np.eye(2)) == 0.0


def test_packet_modes_rejects_packet_narrower_than_the_mode_grid():
    descriptor = _descriptor("bcc-a-plus")
    sizes = (8, 8, 8)
    lattice = evolution.LatticeSpec(presentation=descriptor.presentation, sizes=sizes)
    # Halfway between two modes on every axis, far narrower than their spacing.
    k0 = descriptor.presentation.dual_matrix @ np.full(3, np.pi / 8)
    spec = evolution.WavePacketSpec(tuple(k0), 1e-3, (0, 0, 0), "plus")
    with pytest.raises(ValueError, match="narrower than the mode grid"):
        evolution.packet_modes(spec, descriptor, lattice)
    with pytest.raises(ValueError, match="narrower than the mode grid"):
        evolution.make_packet(spec, descriptor, lattice)


def test_plan_rejects_mismatched_amplitudes():
    plan = every_mode_plan(_descriptor("weyl-1d"), (16,))
    with pytest.raises(ValueError):
        plan.advance(np.zeros((8, 2), dtype=complex), 1)
    with pytest.raises(ValueError):
        plan.advance(np.zeros((16, 2), dtype=complex), -1)


def _assert_streams_as_saved(modes, hat, tmp_path):
    """The snapshot SnapshotStream writes from Modes.ifft_slabs, with slabs of one
    row, of 3 (a ragged last slab when 3 does not divide sizes[0]), of every row
    or the default, is the reference writer's (oracles.save_snapshot) byte for
    byte, one write per slab."""
    kind = {1: "line", 2: "square_2d", 3: "bcc_3d"}[len(modes.sizes)]
    lattice = evolution.LatticeSpec(build_presentation(kind), modes.sizes)
    save_snapshot(evolution.FieldState(lattice, hat.shape[-1], modes.ifftn(hat), 9),
                  tmp_path / "saved.qcas")
    for rows in (1, 3, modes.sizes[0], None):
        stream = serialize.SnapshotStream(tmp_path / "streamed.qcas", modes.sizes, hat.shape[-1], 9)
        slabs = list(modes.ifft_slabs(hat, rows))
        for slab in slabs:
            assert slab.flags.c_contiguous and slab.shape[1:] == modes.sizes[1:] + hat.shape[-1:]
            stream.write(slab)
        stream.close()
        assert (tmp_path / "streamed.qcas").read_bytes() == (tmp_path / "saved.qcas").read_bytes()
        if rows:
            assert len(slabs) == -(-modes.sizes[0] // rows)


def _scattered_ifftn(modes, hat):
    """The reference inverse: the held modes scattered onto the grid, then ifftn
    over the axes in reverse order (numpy transforms the last listed axis first,
    so axis 0 first).  It is within 1e-15 max|hat| of ifftn in numpy's default
    order, which takes the last axis first."""
    grid = np.zeros((modes.count, hat.shape[-1]), dtype=complex)
    grid[modes.index] = hat
    grid = grid.reshape(modes.sizes + hat.shape[-1:])
    out = np.fft.ifftn(grid, axes=tuple(reversed(range(len(modes.sizes)))))
    default = np.fft.ifftn(grid, axes=tuple(range(len(modes.sizes))))
    assert maxabs(out - default) <= 1e-15 * maxabs(hat)
    return out


@pytest.mark.parametrize("name,mass,sizes,k0,sigma", [
    # k0 = 0: the support wraps across mode indices 0 and n - 1 on every axis.
    ("bcc-a-plus", None, (16, 14, 12), (0.0, 0.0, 0.0), 0.2),
    ("dirac-3d", 0.5, (14, 16, 13), (0.2, -0.1, 0.3), 0.2),
    ("dirac-2d", 0.3, (16, 15), (0.4, -0.3), 0.2),
    ("weyl-2d", None, (12, 16), (0.0, 0.0), 0.2),
    ("weyl-1d", None, (32,), (0.5,), 0.2),
    ("dirac-1d", 0.2, (31,), (-0.4,), 0.2),
])
def test_pruned_ifftn_is_bit_identical_to_ifftn(name, mass, sizes, k0, sigma, tmp_path):
    descriptor = _descriptor(name, mass)
    lattice = evolution.LatticeSpec(presentation=descriptor.presentation, sizes=sizes)
    spec = evolution.WavePacketSpec(k0, sigma, tuple(n // 4 for n in sizes), "plus")
    plan, hat = evolution.packet_modes(spec, descriptor, lattice)
    assert len(plan.modes.index) < plan.modes.count
    if not any(k0):
        coords = np.unravel_index(plan.modes.index, sizes)
        assert all({0, n - 1} <= set(c.tolist()) for c, n in zip(coords, sizes))
    rng = np.random.default_rng(5)
    noise = rng.normal(size=hat.shape) + 1j * rng.normal(size=hat.shape)
    for amps in (hat, plan.advance(hat, 7), noise):
        assert np.array_equal(plan.modes.ifftn(amps), _scattered_ifftn(plan.modes, amps))
    _assert_streams_as_saved(plan.modes, noise, tmp_path)


@pytest.mark.parametrize("sizes,s", [
    ((6, 5, 4), 4), ((7, 8), 2), ((9,), 1), ((5, 7, 6), 2), ((6, 5), 4), ((10,), 2),
])
def test_pruned_ifftn_full_grid_and_random_supports(sizes, s, tmp_path):
    # Every mode: each pass's lines are full, and the first pass's grid is a
    # view of hat, which must not be transformed in place.  Mixed: every mode
    # whose second coordinate is 1; its axis-0 pass has full lines and its
    # axis-1 pass does not (one mode per line).
    rng = np.random.default_rng(6)
    count = int(np.prod(sizes))
    subset = np.sort(rng.choice(count, size=count // 4, replace=False))
    coords = np.unravel_index(np.arange(count), sizes)
    mixed = np.flatnonzero(coords[1] == 1) if len(sizes) > 1 else np.arange(count)
    for index in (None, subset, np.array([count - 1]), mixed):
        modes = evolution.Modes(sizes, index)
        hat = rng.normal(size=(len(modes.index), s)) + 1j * rng.normal(size=(len(modes.index), s))
        hat[::5] = -0.0
        before = hat.copy()
        out = modes.ifftn(hat)
        assert same_bits(hat, before)
        assert same_bits(out, _scattered_ifftn(modes, hat))
        _assert_streams_as_saved(modes, hat, tmp_path)
        assert same_bits(hat, before)


def test_ifft_slabs_take_about_block_bytes_of_rows(monkeypatch):
    # A row of the (4, 5) x 2 grid is 160 bytes: a slab holds the rows that fit
    # in _BLOCK_BYTES, at least one, and the last slab the rest.  The count does
    # not depend on which rows hold a mode: every row, or one.
    hat = np.ones((4, 2), dtype=complex)
    for block, rows in ((1, [1, 1, 1, 1]), (320, [2, 2]), (480, [3, 1]), (640, [4]), (1 << 20, [4])):
        monkeypatch.setattr(evolution, "_BLOCK_BYTES", block)
        for index in (np.arange(4) * 5, np.arange(4) + 5):
            assert [len(slab) for slab in evolution.Modes((4, 5), index).ifft_slabs(hat)] == rows


@pytest.mark.parametrize("name,mass,sizes", [
    ("bcc-a-plus", None, (9, 8, 7)), ("dirac-3d", 0.5, (8, 7, 6)),
    ("weyl-2d", None, (10, 9)), ("dirac-1d", 0.3, (17,)),
])
def test_gathered_phase_tables_match_scattered_angles(name, mass, sizes):
    descriptor = _descriptor(name, mass)
    s, count = descriptor.internal_dim, int(np.prod(sizes))
    subset = np.sort(np.random.default_rng(10).choice(count, size=count // 3, replace=False))
    for index in (None, subset):
        modes = evolution.Modes(sizes, index)
        angles = [2.0 * np.pi * np.fft.fftfreq(n)[c]
                  for n, c in zip(sizes, np.unravel_index(modes.index, sizes))]
        want = evolution.assemble(descriptor.rule, descriptor.presentation, angles)
        assert same_bits(evolution.mode_matrices(descriptor, modes), want.reshape(-1, s, s))


def _random_stack(rng, count, s):
    """Random s x s matrices over many magnitudes, a third of the parts -0.0."""
    parts = rng.normal(size=(2, count, s, s)) * 10.0 ** rng.integers(-17, 3, size=(2, count, s, s))
    parts[rng.random(parts.shape) < 0.3] = -0.0
    return parts[0] + 1j * parts[1]


@pytest.mark.parametrize("s", [1, 2, 3, 4, 5, 6])
def test_plan_decomposition_matches_trace_and_norm(s):
    # c and sin(w) as np.trace and np.linalg.norm give them, over more modes
    # than one pass of the decomposition holds, and the same closed-form
    # verdict as the full-stack test.  Up to s = 4, which holds every Weyl and
    # Dirac rule, bit for bit; beyond, the diagonal sum runs in turn and
    # agrees to its roundoff.
    rng = np.random.default_rng(11 + s)
    stacks = [_random_stack(rng, 5000, s)]
    if s in (2, 4):
        stacks.append(every_mode_plan(_descriptor("bcc-a-plus" if s == 2 else "dirac-3d",
                                                  None if s == 2 else 0.3), (18, 17, 16)).mats)
    eps = np.finfo(float).eps
    for mats in stacks:
        plan = evolution.SpectralPlan(mats)
        cos = np.trace(mats, axis1=1, axis2=2).real / s
        shifted = mats - cos[:, None, None] * np.eye(s)
        sin = np.linalg.norm(shifted, axis=(1, 2)) / np.sqrt(s)
        if s <= 4:
            assert same_bits(plan.cos, cos)
            assert same_bits(plan.sin, sin)
        else:
            # s terms round at most s times; a shift dc of c moves sin(w) by |dc|.
            dc = s * eps * np.sum(np.abs(np.diagonal(mats, axis1=1, axis2=2).real), axis=1) / s
            assert np.all(np.abs(plan.cos - cos) <= dc)
            assert np.all(np.abs(plan.sin - sin) <= dc + 4 * s * eps * sin)
        defect = maxabs(shifted + np.conj(np.swapaxes(shifted, 1, 2)))
        assert plan.closed_form == (defect <= evolution._CLOSED_FORM_TOL)
    assert len(stacks[0]) > evolution._CHUNK


def _eig_projectors(mats, branch):
    """Reference projectors V diag(want) V^-1 from one batched eig, with the
    whole space where no branch is defined."""
    vals, vecs = np.linalg.eig(mats)
    phases = np.angle(vals)
    want = phases <= 0 if branch == "plus" else phases > 0
    gaps = np.abs(vals[..., :, None] - vals[..., None, :])
    split = want[..., :, None] & ~want[..., None, :] & (gaps < evolution._BRANCH_GAP)
    whole = np.all(want, axis=-1) | ~np.any(want, axis=-1) | np.any(split, axis=(-2, -1))
    out = (vecs * want[..., None, :]) @ np.linalg.inv(vecs)
    out[whole] = np.eye(mats.shape[-1])
    return out


_PROJECTOR_RULES = [(name, None) for name in catalog.WEYL_NAMES] + [
    (name, mass) for name in catalog.DIRAC_NAMES for mass in (0.0, 0.3, 1.0)
]


def _counting_eig(monkeypatch):
    """Patch np.linalg.eig to record the shape of every stack it is given."""
    eig, calls = np.linalg.eig, []
    monkeypatch.setattr(np.linalg, "eig", lambda m: calls.append(m.shape) or eig(m))
    return calls


def _projected_columns(plan, branch):
    """The plan's branch projector of every held mode, one unit vector at a time."""
    s = plan.mats.shape[-1]
    return np.stack([plan.project(e, branch) for e in np.eye(s)], axis=-1)


@pytest.mark.parametrize("branch", ["plus", "minus"])
@pytest.mark.parametrize("name,mass", _PROJECTOR_RULES)
def test_closed_form_projectors_match_eig(name, mass, branch, monkeypatch):
    descriptor = _descriptor(name, mass)
    # Even sizes hold k = 0 and the theta_j = -pi zone faces; every Weyl and
    # massless Dirac grid below holds a W = I and a W = -I mode.
    sizes = {1: (16,), 2: (8, 8), 3: (6, 6, 6)}[descriptor.presentation.dimension]
    plan = every_mode_plan(descriptor, sizes)
    touching = plan.sin < 1e-8
    assert plan.closed_form and (mass not in (None, 0.0) or touching.sum() >= 2)
    calls = _counting_eig(monkeypatch)
    got = _projected_columns(plan, branch)
    vec = np.random.default_rng(7).normal(size=plan.mats.shape[-1]) + 0j
    touching_vecs = plan.project(vec, branch)[touching]
    monkeypatch.undo()
    assert not calls
    assert maxabs(got - _eig_projectors(plan.mats, branch)) < 1e-12
    assert np.array_equal(got[touching], np.broadcast_to(np.eye(plan.mats.shape[-1]),
                                                         got[touching].shape))
    assert np.array_equal(touching_vecs, np.broadcast_to(vec, touching_vecs.shape))


@pytest.mark.parametrize("name,mass", _PROJECTOR_RULES + [("weyl-1d-x2", None)])
def test_packet_takes_one_eig_of_the_reference(name, mass, monkeypatch):
    # A catalog rule's reference A(theta0) passes the closed-form test, so
    # its packet takes no eig; a tiled rule takes one for the reference and
    # one for the held modes.
    descriptor = _descriptor(name, mass)
    d, s = descriptor.presentation.dimension, descriptor.internal_dim
    sizes = {1: (64,), 2: (32, 32), 3: (16, 16, 16)}[d]
    lattice = evolution.LatticeSpec(presentation=descriptor.presentation, sizes=sizes)
    tiled = name.endswith("-x2")
    # The tiled line's zone is half as wide.
    sigma = 0.1 if tiled else 0.2
    spec = evolution.WavePacketSpec((0.3,) + (-0.2,) * (d - 1), sigma, (0,) * d, "minus")
    calls = _counting_eig(monkeypatch)
    plan, _ = evolution.packet_modes(spec, descriptor, lattice)
    assert plan.closed_form != tiled
    assert calls == ([(1, s, s), (len(plan.modes.index), s, s)] if tiled else [])


def test_scalar_modes_keep_their_whole_space():
    # W = exp(-i theta) I passes the closed-form test, but every eigenphase
    # lies on one side: no branch is defined, as on the eig path.
    descriptor = AutomatonDescriptor(
        presentation=_descriptor("weyl-1d").presentation,
        rule=TransitionRule(entries={"h": np.eye(2, dtype=complex)}, internal_dim=2),
    )
    plan = every_mode_plan(descriptor, (8,))
    assert plan.closed_form
    vec = np.array([0.3 - 0.4j, 1e-300])
    for branch in ("plus", "minus"):
        assert maxabs(_projected_columns(plan, branch) - _eig_projectors(plan.mats, branch)) == 0.0
        assert np.array_equal(plan.project(vec, branch), np.broadcast_to(vec, (8, 2)))


def test_tiled_rule_projectors_take_eig(monkeypatch):
    descriptor = _descriptor("weyl-1d-x2")
    plan = every_mode_plan(descriptor, (8,))
    assert not plan.closed_form
    vec = np.random.default_rng(8).normal(size=plan.mats.shape[-1]) + 0j
    calls = _counting_eig(monkeypatch)
    got = plan.project(vec, "plus")
    assert calls == [plan.mats.shape]
    monkeypatch.undo()
    # Applied per mode as the closed form applies its kernel (an einsum, whose
    # bits differ from a matmul's).
    assert np.array_equal(got, np.einsum("nab,b->na", _eig_projectors(plan.mats, "plus"), vec))


_TILINGS = [("weyl-1d", ((2,),)), ("weyl-1d", ((3,),)), ("weyl-1d", ((4,),)),
            ("dirac-1d", ((2,),)), ("weyl-2d", ((2, 0), (0, 1)))]


@pytest.mark.parametrize("name,basis", _TILINGS, ids=["weyl-1d-x2", "weyl-1d-x3", "weyl-1d-x4",
                                                    "dirac-1d-x2", "weyl-2d-2x1"])
# No shrinking: each example reruns the 10^4-step oracle, and shrinking a
# failure would take minutes.
@settings(max_examples=3, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(
    # The Dirac mass; not 1, where a tiled dirac-1d (n = 0) still passes the
    # closed-form test.
    mass=st.sampled_from([0.0, 0.3, 0.6]),
    coarse=st.integers(min_value=2, max_value=4),
    branch=st.sampled_from(["plus", "minus"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_tiled_plans_match_direct_and_eig(name, basis, mass, coarse, branch, seed):
    # A tiling mixes the internal and coset indices, so W + W^dagger is no
    # longer a multiple of I: the plan takes the generic matrix-power and eig
    # path, which must still agree with step_direct and the eig projectors.
    base = catalog.build_descriptor(name, mass=mass if name.startswith("dirac") else None)
    descriptor = evolution.tile_descriptor(base, make_tiling(base.presentation, basis))
    sizes = (coarse,) * base.presentation.dimension
    plan = every_mode_plan(descriptor, sizes)
    assert not plan.closed_form
    state = _state(descriptor, sizes, seed=seed)
    hat = np.fft.fftn(state.amplitudes, axes=tuple(range(len(sizes))))
    hat = hat.reshape(-1, descriptor.internal_dim)
    direct = _direct_checkpoints(state, descriptor)
    for n in CHECKPOINTS:
        err = maxabs(plan.modes.ifftn(plan.advance(hat, n)) - direct[n])
        assert err <= TOL[n], f"{n} steps: {err:.2e}"
    vec = np.random.default_rng(seed).normal(size=descriptor.internal_dim) + 0j
    want = _eig_projectors(plan.mats, branch) @ vec
    assert maxabs(plan.project(vec, branch) - want) < 1e-12


def _dense_envelope(spec, pres, sizes):
    """The packet envelope on every mode of the grid, and its largest value on
    a seam row."""
    theta0 = pres.theta_of(np.asarray(spec.center_k, dtype=float))
    thetas = [2.0 * np.pi * np.fft.fftfreq(n) for n in sizes]
    wrapped = [np.mod(t - t0 + np.pi, 2.0 * np.pi) - np.pi for t, t0 in zip(thetas, theta0)]
    dk = np.stack(np.meshgrid(*wrapped, indexing="ij"), axis=-1) @ pres.dual_matrix.T
    envelope = np.exp(-np.sum(dk * dk, axis=-1) / (4.0 * spec.sigma_k ** 2))
    seams = [np.argmin(np.cos(t - t0)) for t, t0 in zip(thetas, theta0)]
    leak = max(float(np.max(np.take(envelope, seam, axis=j))) for j, seam in enumerate(seams))
    return envelope.ravel(), leak


def _dense_packet(spec, descriptor, sizes):
    """Index and amplitudes of the packet built on the whole grid with eig projectors."""
    pres, s = descriptor.presentation, descriptor.internal_dim
    envelope, leak = _dense_envelope(spec, pres, sizes)
    assert leak <= 1e-12
    index = np.flatnonzero(envelope > 1e-14)
    angles = [2.0 * np.pi * np.fft.fftfreq(n)[c]
              for n, c in zip(sizes, np.unravel_index(index, sizes))]
    mats = evolution.assemble(descriptor.rule, pres, angles).reshape(-1, s, s)
    theta0 = pres.theta_of(np.asarray(spec.center_k, dtype=float))
    ref_proj = _eig_projectors(evolution.assemble(descriptor.rule, pres, theta0)
                               .reshape(1, s, s), spec.branch)[0]
    norms = np.linalg.norm(ref_proj, axis=0)
    ref = ref_proj[:, int(np.argmax(norms >= (1.0 - 1e-9) * np.max(norms)))]
    vecs = _eig_projectors(mats, spec.branch) @ (ref / np.linalg.norm(ref))
    nv = np.linalg.norm(vecs, axis=-1)
    phase = np.exp(-1j * sum(a * x for a, x in zip(angles, spec.center_x)))
    weight = np.where(nv >= 1e-12, envelope[index] * phase / np.maximum(nv, 1e-300), 0.0)
    amps = weight[:, None] * vecs
    return index, amps * np.sqrt(envelope.size) / np.linalg.norm(amps)


@pytest.mark.parametrize("branch", ["plus", "minus"])
@pytest.mark.parametrize("case", sorted(SUPPORT_CASES))
def test_box_envelope_packet_matches_dense_oracle(case, branch):
    name, mass, sizes, k0, sigma = SUPPORT_CASES[case]
    descriptor = _descriptor(name, mass)
    lattice = evolution.LatticeSpec(presentation=descriptor.presentation, sizes=sizes)
    spec = evolution.WavePacketSpec(k0, sigma, tuple(n // 3 for n in sizes), branch)
    plan, hat = evolution.packet_modes(spec, descriptor, lattice)
    index, amps = _dense_packet(spec, descriptor, sizes)
    assert np.array_equal(plan.modes.index, index)
    assert maxabs(hat - amps) <= 1e-13 * maxabs(amps)


@pytest.mark.parametrize("name,sizes,k0", [
    ("weyl-1d", (16,), (0.5,)),
    ("bcc-a-plus", (8, 8, 8), (0.3, -0.2, 0.4)),
    ("dirac-2d", (12, 10), (0.2, -0.5)),
])
def test_zone_leak_bound_matches_dense_envelope(name, sizes, k0):
    descriptor = _descriptor(name)
    lattice = evolution.LatticeSpec(presentation=descriptor.presentation, sizes=sizes)

    def spec(sigma):
        return evolution.WavePacketSpec(k0, sigma, (0,) * len(sizes), "plus")

    # The seam maximum grows with sigma: bisect for the sigma where it is 1e-12.
    lo, hi = 1e-3, 10.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if _dense_envelope(spec(mid), lattice.presentation, sizes)[1] > 1e-12 \
            else (mid, hi)
    below, above = lo * (1.0 - 1e-6), hi * (1.0 + 1e-6)
    assert _dense_envelope(spec(below), lattice.presentation, sizes)[1] <= 1e-12
    evolution.packet_modes(spec(below), descriptor, lattice)
    with pytest.raises(ZoneLeakError):
        evolution.packet_modes(spec(above), descriptor, lattice)
