"""Electromagnetic sector: two counter-propagating chiral fields.

A mode pair (psi, phi) at wave-vector k/2 evolves under W and W* each step.
The bilinear 3-vector G^i = phi^T sigma^i psi, projected transverse to the
helicity axis n_{k/2}, precesses rigidly about that axis at angular rate
2 |n_{k/2}|:

    G_T(t) = exp([2 n t]_x) G_T(0),   d/dt G_T = 2 n_{k/2} x G_T.

With E = |n|(G_T + conj G_T) and B = i |n| (conj G_T - G_T) the transverse
fields obey the same rotation equations, the wave-vector Maxwell form with
2 n_{k/2} playing the wave-vector; in the small-|k| limit 2 n_{k/2}
approaches the linearized helicity flow of the chosen variant.

All dynamics here is c-number (single-particle amplitudes); the operator
content enters only through the exact few-mode oracle in the fock module.
"""

import numpy as np

from . import weyl
from .pauli import PAULI, maxabs, rotation_about, su2_exp

_DEFAULT_VARIANT = weyl.WeylVariant(3, kind="A", sign=1)


def bilinear_G(psi_amp, phi_amp):
    """G^i = phi^T sigma^i psi for two spinor amplitudes."""
    psi = np.asarray(psi_amp, dtype=complex)
    phi = np.asarray(phi_amp, dtype=complex)
    return np.einsum("a,iab,b->i", phi, PAULI, psi)


def helicity_half(k, variant=_DEFAULT_VARIANT):
    """Rotation axis n_{k/2} of the chosen chiral variant."""
    k = np.asarray(k, dtype=float)
    return weyl.helicity_vector(variant, k / 2.0)


def transverse_project(g_vec, n):
    """Component of G orthogonal to the helicity axis n; raises at n = 0."""
    n = np.asarray(n, dtype=float)
    norm = float(np.linalg.norm(n))
    if norm < 1e-12:
        raise ValueError("helicity direction undefined at k = 0")
    unit = n / norm
    g_vec = np.asarray(g_vec, dtype=complex)
    return g_vec - (unit @ g_vec) * unit


def transverse_bilinear(psi_amp, phi_amp, n, t):
    """G_T(t) recomputed from the spinors in continuous time about the helicity
    axis n: psi by exp(-i sigma.n t), phi by its conjugate."""
    u = su2_exp(np.asarray(n, dtype=float) * t)
    psi_t = u @ np.asarray(psi_amp, dtype=complex)
    phi_t = np.conj(u @ np.conj(np.asarray(phi_amp, dtype=complex)))
    return transverse_project(bilinear_G(psi_t, phi_t), n)


def rotation_form(psi_amp, phi_amp, n, t):
    """G_T(t) predicted by rigid rotation of G_T(0) at Omega = 2 n."""
    g0 = transverse_bilinear(psi_amp, phi_amp, n, 0.0)
    return rotation_about(2.0 * np.asarray(n, dtype=float) * t) @ g0


def electric_magnetic(g_t, n):
    """E = |n|(G_T + conj G_T), B = i |n| (conj G_T - G_T)."""
    scale = float(np.linalg.norm(n))
    e_field = scale * (g_t + np.conj(g_t))
    b_field = 1j * scale * (np.conj(g_t) - g_t)
    return e_field, b_field


def mode_maxwell_residual(psi_amp, phi_amp, k, dt, times=(0.0, 1.0, 2.5),
                          t_max=10.0, variant=_DEFAULT_VARIANT):
    """Dynamics residuals for one mode pair, as the dict `qca maxwell` emits.

    Central differences with step dt probe d/dt G_T = Omega x G_T and the
    four transverse-field equations; the rigid-rotation form is compared
    against spinor recomputation on a grid up to t_max.
    """
    n = helicity_half(k, variant)
    omega_vec = 2.0 * n

    def g_t(t):
        return transverse_bilinear(psi_amp, phi_amp, n, t)

    rot_res = maxabs([rotation_form(psi_amp, phi_amp, n, t) - g_t(t)
                      for t in np.linspace(0.0, t_max, 9)])

    # Residuals are stacked and reduced by maxabs, which keeps a NaN that
    # max(acc, nan) would drop.
    fd, he, hb, de, db = [], [], [], [], []
    for t in times:
        plus, mid, minus = g_t(t + dt), g_t(t), g_t(t - dt)
        fd.append((plus - minus) / (2.0 * dt) - np.cross(omega_vec, mid))
        e_mid, b_mid = electric_magnetic(mid, n)
        e_deriv = (np.stack(electric_magnetic(plus, n))
                   - np.stack(electric_magnetic(minus, n))) / (2.0 * dt)
        he.append(2.0 * n @ e_mid)
        hb.append(2.0 * n @ b_mid)
        de.append(e_deriv[0] - np.cross(omega_vec, e_mid))
        db.append(e_deriv[1] - np.cross(omega_vec, b_mid))

    report = {
        "rotation_vs_spinor": rot_res,
        "finite_difference": maxabs(fd),
        "transversality_E": maxabs(he),
        "transversality_B": maxabs(hb),
        "dynamics_E": maxabs(de),
        "dynamics_B": maxabs(db),
    }
    report["max_residual"] = maxabs(list(report.values()))
    return report


def angular_momentum_identity_residual(v):
    """Deviation of exp(-i v.sigma/2) sigma exp(i v.sigma/2) from the rotation
    Exp(-i v.J) applied to the Pauli vector.

    J is the spin-1 triplet (J_l)_{jk} = +i eps_{ljk}, the convention under
    which the identity is exact: Exp(-i v.J) = exp([-v]_x).
    """
    v = np.asarray(v, dtype=float)
    u = su2_exp(v / 2.0)
    udag = u.conj().T
    rot = rotation_about(-v)
    return maxabs([u @ PAULI[i] @ udag - sum(rot[i, j] * PAULI[j] for j in range(3))
                   for i in range(3)])


def precession_deviation(k, variant=_DEFAULT_VARIANT):
    """|2 n_{k/2} - L k| with L the variant's linearized helicity map.

    Vanishes as O(|k|^2); the growth of this deviation toward the zone scale
    is the distortion of the wave-vector substitution at large k.
    """
    k = np.asarray(k, dtype=float)
    _, jac, _, _ = weyl._linearization(variant)
    return float(np.linalg.norm(2.0 * helicity_half(k, variant) - jac @ k))


def polarization_basis(k, variant=_DEFAULT_VARIANT):
    """Right-handed orthonormal pair transverse to the helicity axis n_k.

    Deterministic gauge: u1 = normalize(a x n) with a = z-hat, falling back
    to a = y-hat when n is within 1e-6 of the z axis; u2 = n-hat x u1.
    """
    k = np.asarray(k, dtype=float)
    n = weyl.helicity_vector(variant, k)
    norm = float(np.linalg.norm(n))
    if norm < 1e-12:
        raise ValueError("polarization undefined at k = 0")
    n_hat = n / norm
    axis = np.array([0.0, 0.0, 1.0])
    if np.linalg.norm(np.cross(n_hat, axis)) < 1e-6:
        axis = np.array([0.0, 1.0, 0.0])
    u1 = np.cross(axis, n_hat)
    u1 = u1 / np.linalg.norm(u1)
    u2 = np.cross(n_hat, u1)
    return u1, u2
