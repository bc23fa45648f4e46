"""Closed-form chiral (s = 2) automata in one, two and three dimensions.

Every variant evaluates to an SU(2) step operator

    W(k) = u(k) I - i sigma . ntilde(k),   u^2 + |ntilde|^2 = 1,

with eigenphases +-arccos(u).  Each is the ordered product of the one-axis
rotations exp(-i sigma_a k_j / sqrt(d)): R_z on the line, R_x R_y on the square
graph, R_x R_y R_z on the BCC graph (bcc-a-minus; the plus branch negates the y
angle).  The two-dimensional theta family puts cos(theta) I + i sin(theta) sigma_x
in front; kind B is the transpose of kind A, theta included, which negates ntilde_y.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BranchPointError
from .pauli import ID2, omega_over_sin, omega_over_sin_deriv, pauli_dot


@dataclass(frozen=True)
class WeylVariant:
    """One member of the chiral automaton family.

    kind is "A" or "B" (B is the transpose of A at every k); sign selects
    the +- branch in three dimensions; theta parametrizes the residual
    unitary freedom of the two-dimensional family and must be 0 elsewhere.
    """

    dimension: int
    kind: str = "A"
    sign: int = 1
    theta: float = 0.0

    def __post_init__(self):
        if self.dimension not in (1, 2, 3):
            raise ValueError("dimension must be 1, 2 or 3")
        if self.kind not in ("A", "B"):
            raise ValueError("kind must be 'A' or 'B'")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if not np.isfinite(self.theta):
            raise ValueError("theta must be finite")
        if self.dimension != 2 and self.theta != 0.0:
            raise ValueError("theta is a two-dimensional parameter")
        if self.dimension == 1 and self.kind != "A":
            raise ValueError("the one-dimensional solution is unique")

    @property
    def name(self):
        if self.dimension == 1:
            return "weyl-1d"
        if self.dimension == 2:
            base = "weyl-2d" if self.kind == "A" else "weyl-2d-b"
            return base if self.theta == 0.0 else f"{base}(theta={self.theta})"
        tag = "plus" if self.sign > 0 else "minus"
        return f"bcc-{self.kind.lower()}-{tag}"

    @property
    def presentation_kind(self):
        return {1: "line", 2: "square_2d", 3: "bcc_3d"}[self.dimension]


@dataclass(frozen=True)
class DispersionSample:
    """Dispersion data at wave-vectors k of shape (..., d).

    omega (..., 2) holds the two eigenphase branches (+arccos u, -arccos u);
    group_velocity (..., d) is the gradient of the positive branch.
    """

    omega: np.ndarray
    group_velocity: np.ndarray


# The axis a of each factor exp(-i sigma_a k_j / sqrt(d)), in product order.
_AXES = {1: (2,), 2: (0, 1), 3: (0, 1, 2)}


def _turn(q, axis, c, s, side=1):
    """The quaternion q = (u, n_x, n_y, n_z), stacked along the first axis,
    times c I - i s sigma_axis on the right (side=1) or on the left (side=-1)."""
    u, n = q[0], q[1:]
    a, b, e = axis, (axis + 1) % 3, (axis + 2) % 3
    t = s if side == 1 else -s
    out = np.empty_like(q)
    out[0] = c * u - s * n[a]
    out[1 + a] = c * n[a] + s * u
    out[1 + b] = c * n[b] + t * n[e]
    out[1 + e] = c * n[e] - t * n[b]
    return out


def closed_form(variant, k):
    """(u, ntilde, grad u, jacobian of ntilde) at wave-vectors k of shape
    (..., d); the results have shapes (...), (..., 3), (..., d), (..., 3, d)."""
    k = np.asarray(k, dtype=float)
    axes = _AXES[variant.dimension]
    r = 1.0 / np.sqrt(len(axes))
    phi = np.moveaxis(k, -1, 0) * r
    cos, sin = np.cos(phi), np.sin(phi)
    # The BCC sign branch turns by -sign k_y / sqrt(3) about y.
    signs = (1.0, -float(variant.sign) if variant.dimension == 3 else 1.0, 1.0)
    q = np.zeros((4,) + phi.shape[1:])
    q[0], q[1 + axes[0]] = cos[0], sin[0]
    dq = np.zeros((4, len(axes)) + phi.shape[1:])
    dq[0, 0], dq[1 + axes[0], 0] = -sin[0], cos[0]
    # Product rule: d/dk_j swaps factor j for its derivative; earlier factors are constant.
    for j in range(1, len(axes)):
        c, s, g = cos[j], sin[j], signs[j]
        dq[:, :j] = _turn(dq[:, :j], axes[j], c, g * s)
        dq[:, j] = _turn(q, axes[j], -s, g * c)
        q = _turn(q, axes[j], c, g * s)
    dq *= r
    if variant.theta != 0.0:
        # The left factor exp(i theta sigma_x) does not depend on k.
        ct, st = np.cos(variant.theta), np.sin(variant.theta)
        q, dq = _turn(q, 0, ct, -st, side=-1), _turn(dq, 0, ct, -st, side=-1)
    if variant.kind == "B":
        # The transpose: sigma_y^T = -sigma_y.
        q[2], dq[2] = -q[2], -dq[2]
    return (q[0], np.moveaxis(q[1:], 0, -1), np.moveaxis(dq[0], 0, -1),
            np.moveaxis(dq[1:], (0, 1), (-2, -1)))


def weyl_matrix(variant, k):
    """Step operator W(k) = u I - i sigma . ntilde, shape (..., 2, 2)."""
    u, nt, _, _ = closed_form(variant, k)
    return np.asarray(u)[..., None, None] * ID2 - 1j * pauli_dot(nt)


def _omega(u):
    return np.arccos(np.clip(u, -1.0, 1.0))


def helicity_vector(variant, k):
    """Rotation-axis vector n = (omega / sin omega) ntilde; |n| = omega."""
    u, nt, _, _ = closed_form(variant, k)
    return omega_over_sin(_omega(u))[..., None] * nt


def dispersion(variant, k, scale=1.0):
    """Eigenphase branches +-arccos(scale u) and group velocity at wave-vectors
    k of shape (..., d); scale = n gives the Dirac walk's.

    The velocity is the gradient -scale grad u / sin(omega) of the positive
    branch; at band-touching points (sin(omega) < 1e-9) it is 0, the direction
    average over the cone tip.
    """
    u, _, gu, _ = closed_form(variant, k)
    a = scale * u
    w = _omega(a)
    sin_w = np.sqrt(np.maximum(1.0 - a * a, 0.0))
    touch = sin_w < 1e-9
    velocity = -scale * gu / np.where(touch, 1.0, sin_w)[..., None]
    velocity[touch] = 0.0
    return DispersionSample(omega=np.stack([w, -w], axis=-1), group_velocity=velocity)


def _log_factor(variant, k, scale=1.0):
    """(f, ntilde) at one wave-vector k: f = w / sin w at w = arccos(scale u(k)),
    so that the interpolating Hamiltonians carry the vector f scale ntilde."""
    u, nt, _, _ = closed_form(variant, k)
    w = _omega(scale * u)
    if abs(w - np.pi) < 1e-6:
        raise BranchPointError(f"eigenphase {w} at the logarithm branch point")
    return omega_over_sin(w), nt


def interpolating_hamiltonian(variant, k):
    """Hermitian H with exp(-i H) = W(k) exactly; eigenvalues +-omega."""
    f, nt = _log_factor(variant, k)
    return pauli_dot(f * nt)


@lru_cache(maxsize=None)
def _linearization(variant, scale=1.0):
    """First order at k = 0 of f ntilde, f = w / sin w at w = arccos(scale u):
    (f0 ntilde0, the Jacobian of f ntilde, f0, grad f0)."""
    f0, _ = _log_factor(variant, np.zeros(variant.dimension), scale)  # raises at the branch point
    u0, nt0, gu0, jac0 = closed_form(variant, np.zeros(variant.dimension))
    w0 = _omega(scale * u0)
    sin_w0 = np.sin(w0)
    grad_f = np.zeros_like(gu0)
    if sin_w0 >= 1e-9:
        grad_f = omega_over_sin_deriv(w0) * (-scale * gu0 / sin_w0)
    return f0 * nt0, f0 * jac0 + np.outer(nt0, grad_f), f0, grad_f


def small_k_hamiltonian(variant, k):
    """First-order expansion of the interpolating Hamiltonian at k = 0.

    For the canonical variants (theta = 0) this is a pure linear map with
    eigenvalues exactly +-|k|/sqrt(d); nonzero theta adds the constant
    -theta sigma_x of the step operator's value at the origin.
    """
    k = np.asarray(k, dtype=float)
    n0, jac_n, _, _ = _linearization(variant)
    return pauli_dot(n0 + jac_n @ k)


def named_variants():
    """The canonical family members keyed by their command-line names."""
    return {
        "weyl-1d": WeylVariant(1),
        "weyl-2d": WeylVariant(2, kind="A"),
        "weyl-2d-b": WeylVariant(2, kind="B"),
        "bcc-a-plus": WeylVariant(3, kind="A", sign=1),
        "bcc-a-minus": WeylVariant(3, kind="A", sign=-1),
        "bcc-b-plus": WeylVariant(3, kind="B", sign=1),
        "bcc-b-minus": WeylVariant(3, kind="B", sign=-1),
    }


def variant_by_name(name, theta=0.0):
    base = named_variants()
    if name not in base:
        raise ValueError(f"unknown variant {name!r}; choose from {sorted(base)}")
    v = base[name]
    if theta != 0.0:
        if v.dimension != 2:
            raise ValueError("theta applies to the two-dimensional variants only")
        v = WeylVariant(2, kind=v.kind, theta=theta)
    return v
