"""Independent oracles that more than one test module compares against."""

import numpy as np

from qca import evolution


def same_bits(got, want):
    """Equal dtype, shape and bytes: -0.0 differs from 0.0, and a NaN equals itself."""
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


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
