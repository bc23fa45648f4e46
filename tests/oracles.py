"""Independent oracles that more than one test module compares against, and
the dense-state runs of the paths that the commands take."""

import contextlib
from dataclasses import replace

import numpy as np

from qca import dirac, evolution, serialize
from qca.automaton import AutomatonDescriptor, TransitionRule
from qca.cayley import IDENTITY_LABEL
from qca.pauli import dagger


def same_bits(got, want):
    """Equal dtype, shape and bytes: -0.0 differs from 0.0, and a NaN equals itself."""
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def identity_descriptor(presentation, internal_dim=2):
    """The rule that leaves every state unchanged: a fixed point for the steppers."""
    rule = TransitionRule(
        entries={IDENTITY_LABEL: np.eye(internal_dim, dtype=complex)},
        internal_dim=internal_dim,
    )
    return AutomatonDescriptor(presentation=presentation, rule=rule, name="identity")


def lattice_moments(state):
    """Moments of |psi|^2 summed over the lattice sites: the real-space oracle
    for evolution.mode_moments, which reads them off the mode amplitudes."""
    d = state.lattice.presentation.dimension
    sizes = state.lattice.sizes
    weights = np.sum(np.abs(state.amplitudes) ** 2, axis=-1)
    total = float(np.sum(weights))
    z = []
    for j in range(d):
        angles = 2.0 * np.pi * np.arange(sizes[j]) / sizes[j]
        other = tuple(ax for ax in range(d) if ax != j)
        z.append(np.sum(np.sum(weights, axis=other) * np.exp(1j * angles)) / total)
    means = (np.angle(z) % (2.0 * np.pi)) * np.asarray(sizes) / (2.0 * np.pi)
    return evolution.Moments(float(np.sqrt(total)), means, np.abs(z))


def packet_velocity(before, after, steps):
    """Cartesian displacement per step of the circular mean from the dense state
    `before` to `after`, by minimum image: exact while the packet moves less
    than half a period."""
    lattice = before.lattice
    m0, m1 = lattice_moments(before), lattice_moments(after)
    evolution.check_seam(m0, lattice.sizes)
    evolution.check_seam(m1, lattice.sizes)
    sizes = np.asarray(lattice.sizes, dtype=float)
    delta = np.mod(m1.means - m0.means + sizes / 2.0, sizes) - sizes / 2.0
    return lattice.presentation.basis_matrix @ (delta / steps)


def every_mode_plan(descriptor, sizes):
    """The SpectralPlan of the descriptor's step on every mode of the grid `sizes`."""
    modes = evolution.Modes(sizes)
    return evolution.SpectralPlan(evolution.mode_matrices(descriptor, modes), modes)


def spectral_steps(state, descriptor, steps):
    """A dense state after `steps` steps of the every-mode SpectralPlan."""
    plan = every_mode_plan(descriptor, state.lattice.sizes)
    hat = np.fft.fftn(state.amplitudes, axes=tuple(range(len(plan.modes.sizes))))
    out = plan.advance(hat.reshape(-1, state.internal_dim), steps)
    return replace(state, amplitudes=plan.modes.ifftn(out), time=state.time + steps)


def save_snapshot(state, path):
    """Write the fixed little-endian snapshot layout."""
    body = np.ascontiguousarray(state.amplitudes, dtype="<c16")
    with open(path, "wb") as fh:
        fh.write(serialize._snapshot_header(state.lattice.sizes, state.internal_dim, state.time))
        fh.write(body)


def stream_snapshot(state, path):
    """A dense state's snapshot, written by serialize.SnapshotStream as one slab."""
    stream = serialize.SnapshotStream(path, state.lattice.sizes, state.internal_dim, state.time)
    with contextlib.closing(stream):
        stream.write(state.amplitudes)


def residual_and_jacobian_einsum(params_real, ws, adjoint_first):
    """The coupling probe's residual D^+ D - I at every wave-vector of the stack ws
    (16 real then 16 imaginary parts each) and its Jacobian, with every
    C_i = dD/dz_i held as a full 4x4 stack and C_i^+ D taken by one einsum: the
    reference for dirac._residual_and_jacobian, which compresses the sum over
    the wave-vectors to 48 entries and builds C_i^+ D from 2x2 blocks."""
    _, q, r, _, x_block, y_block = params = dirac._pack(params_real[0::2] + 1j * params_real[1::2])
    d = dirac._coupled(params, ws, adjoint_first)
    c = np.zeros((12,) + d.shape, dtype=complex)
    # With X and Y fixed the ansatz is linear in (p, q, r, t).
    c[:4] = [dirac._coupled((*unit, x_block, y_block), ws, adjoint_first) for unit in np.eye(4)]
    ab = np.arange(4)
    c[4 + ab, :, ab // 2, 2 + ab % 2] = q
    c[8 + ab, :, 2 + ab // 2, ab % 2] = r
    cd = np.einsum("ikba,kbc->ikac", c.conj(), d)
    jac = np.stack([cd + dagger(cd), 1j * (dagger(cd) - cd)], axis=1).reshape(24, -1, 16)
    res = (dagger(d) @ d - np.eye(4)).reshape(-1, 16)
    return (np.concatenate([res.real, res.imag], axis=-1).ravel(),
            np.concatenate([jac.real, jac.imag], axis=-1).reshape(24, -1).T)
