"""Pauli matrices and small dense-matrix helpers shared across modules.

Everything here operates on tiny matrices (2x2 to 4x4, and 3x3 rotations),
so plain dense numpy is the right tool.
"""

import numpy as np

ID2 = np.eye(2, dtype=complex)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# Stacked (3, 2, 2) for vectorized contractions sigma . v.
PAULI = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])


def pauli_dot(v):
    """sigma . v for (possibly complex) 3-vectors v of shape (..., 3)."""
    v = np.asarray(v, dtype=complex)
    return np.tensordot(v, PAULI, axes=([-1], [0]))


def dagger(m):
    return np.conj(np.swapaxes(m, -1, -2))


def maxabs(m):
    """Max-norm (largest absolute entry); the residual norm used throughout."""
    m = np.asarray(m)
    if m.size == 0:
        return 0.0
    return float(np.max(np.abs(m)))


def su2_exp(n):
    """exp(-i sigma.n) for a real 3-vector n, in closed form.

    Uses sin(t)/t via np.sinc so the t -> 0 limit is exact.
    """
    n = np.asarray(n, dtype=float)
    theta = float(np.linalg.norm(n))
    return np.cos(theta) * ID2 - 1j * np.sinc(theta / np.pi) * pauli_dot(n)


def omega_over_sin(w):
    """w / sin(w), elementwise, with the removable singularity at w = 0
    filled by series."""
    w = np.asarray(w, dtype=float)
    small = np.abs(w) < 1e-4
    w2 = w * w
    safe = np.where(small, 1.0, w)
    return np.where(small, 1.0 + w2 / 6.0 + 7.0 * w2 * w2 / 360.0, safe / np.sin(safe))


def omega_over_sin_deriv(w):
    """d/dw of w / sin(w), series-guarded near w = 0."""
    w = float(w)
    if abs(w) < 1e-4:
        return w / 3.0 + 7.0 * w ** 3 / 90.0
    s = np.sin(w)
    return (s - w * np.cos(w)) / (s * s)


def principal_phase(z):
    """Phase of z in (-pi, pi]; maps the -pi float edge case to +pi."""
    p = np.angle(z)
    return np.where(p <= -np.pi, p + 2.0 * np.pi, p)


def cross_matrix(v):
    """3x3 matrix C with C @ w = v x w."""
    x, y, z = np.asarray(v, dtype=float)
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def rotation_about(v):
    """Rotation matrix exp([v]_x): angle |v| about the axis v (Rodrigues)."""
    v = np.asarray(v, dtype=float)
    theta = float(np.linalg.norm(v))
    c = cross_matrix(v)
    if theta < 1e-9:
        return np.eye(3) + c + 0.5 * (c @ c)
    a = np.sin(theta) / theta
    b = (1.0 - np.cos(theta)) / (theta * theta)
    return np.eye(3) + a * c + b * (c @ c)
