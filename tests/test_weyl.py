"""Closed-form chiral automata: matrices, dispersion, Hamiltonians."""

import numpy as np
import pytest
import scipy.linalg

from qca import weyl
from qca.errors import BranchPointError
from qca.pauli import SIGMA_X, SIGMA_Z, dagger, maxabs, su2_exp

ALL_VARIANTS = tuple(weyl.named_variants().values())


def _random_k(rng, dim, scale=2.5):
    return rng.uniform(-scale, scale, size=dim)


def test_identity_at_origin():
    for v in ALL_VARIANTS:
        w = weyl.weyl_matrix(v, np.zeros(v.dimension))
        assert maxabs(w - np.eye(2)) < 1e-15, v.name


def test_bcc_face_point():
    v = weyl.WeylVariant(3)
    k = np.array([np.sqrt(3.0) * np.pi / 2.0, 0.0, 0.0])
    assert maxabs(weyl.weyl_matrix(v, k) - (-1j * SIGMA_X)) < 1e-14


def test_sign_branches_differ_by_stated_pattern():
    # Evaluate both branches independently from scratch.
    rng = np.random.default_rng(2)
    k = _random_k(rng, 3)
    c = np.cos(k / np.sqrt(3.0))
    s = np.sin(k / np.sqrt(3.0))
    for sign in (1, -1):
        g = float(sign)
        u = c[0] * c[1] * c[2] + g * s[0] * s[1] * s[2]
        nt = np.array(
            [
                s[0] * c[1] * c[2] - g * c[0] * s[1] * s[2],
                -g * c[0] * s[1] * c[2] - s[0] * c[1] * s[2],
                c[0] * c[1] * s[2] - g * s[0] * s[1] * c[2],
            ]
        )
        got_u, got_nt, _, _ = weyl.closed_form(weyl.WeylVariant(3, sign=sign), k)
        assert abs(got_u - u) < 1e-15
        assert np.max(np.abs(got_nt - nt)) < 1e-15


def test_transpose_relation():
    rng = np.random.default_rng(3)
    for dim, kind_a, kind_b in ((3, "A", "B"), (2, "A", "B")):
        for sign in ((1, -1) if dim == 3 else (1,)):
            va = weyl.WeylVariant(dim, kind=kind_a, sign=sign)
            vb = weyl.WeylVariant(dim, kind=kind_b, sign=sign)
            for _ in range(20):
                k = _random_k(rng, dim)
                assert maxabs(
                    weyl.weyl_matrix(vb, k) - weyl.weyl_matrix(va, k).T
                ) < 1e-14


# The named variants plus a theta member of each kind.
PRODUCT_VARIANTS = ALL_VARIANTS + (weyl.WeylVariant(2, theta=0.3),
                                   weyl.WeylVariant(2, kind="B", theta=-1.1))


def _rotation_product(v, k):
    """W(k) as the ordered product of the one-axis rotations exp(-i sigma_a k_j / sqrt(d))
    (the BCC plus branch negates the y angle), exp(i theta sigma_x) in front, transposed
    for kind B."""
    axes = {1: (2,), 2: (0, 1), 3: (0, 1, 2)}[v.dimension]
    angles = np.asarray(k) / np.sqrt(v.dimension)
    if v.dimension == 3 and v.sign > 0:
        angles = angles * np.array([1.0, -1.0, 1.0])
    w = np.eye(2)
    for axis, angle in zip(axes, angles):
        w = w @ su2_exp(angle * np.eye(3)[axis])
    w = (np.cos(v.theta) * np.eye(2) + 1j * np.sin(v.theta) * SIGMA_X) @ w
    return w.T if v.kind == "B" else w


def test_step_is_ordered_product_of_one_axis_rotations():
    rng = np.random.default_rng(11)
    for v in PRODUCT_VARIANTS:
        for k in [np.zeros(v.dimension)] + [_random_k(rng, v.dimension, np.pi) for _ in range(20)]:
            assert maxabs(weyl.weyl_matrix(v, k) - _rotation_product(v, k)) < 1e-14, (v.name, k)


def test_derivatives_match_central_differences():
    rng = np.random.default_rng(12)
    step = 1e-6
    for v in PRODUCT_VARIANTS:
        for _ in range(10):
            k = _random_k(rng, v.dimension)
            _, _, grad_u, jac = weyl.closed_form(v, k)
            for j in range(v.dimension):
                dk = step * np.eye(v.dimension)[j]
                up, um = weyl.closed_form(v, k + dk), weyl.closed_form(v, k - dk)
                assert abs(grad_u[j] - (up[0] - um[0]) / (2 * step)) < 1e-8, v.name
                assert maxabs(jac[:, j] - (up[1] - um[1]) / (2 * step)) < 1e-8, v.name


def test_unimodular_closed_form():
    rng = np.random.default_rng(4)
    for v in ALL_VARIANTS + (weyl.WeylVariant(2, theta=0.7),):
        for _ in range(50):
            u, nt, _, _ = weyl.closed_form(v, _random_k(rng, v.dimension))
            assert abs(u * u + nt @ nt - 1.0) < 1e-13


def test_unitarity_bulk():
    rng = np.random.default_rng(5)
    for v in ALL_VARIANTS:
        ks = rng.uniform(-3, 3, size=(1000, v.dimension))
        for k in ks:
            w = weyl.weyl_matrix(v, k)
            assert maxabs(dagger(w) @ w - np.eye(2)) < 1e-12


def test_dispersion_1d_exactly_linear():
    sample = weyl.dispersion(weyl.WeylVariant(1), [0.4])
    assert sample.omega[0] == pytest.approx(0.4, abs=1e-15)
    assert sample.group_velocity[0] == pytest.approx(1.0, abs=1e-12)


def test_group_velocity_matches_finite_differences():
    rng = np.random.default_rng(6)
    step = 1e-6
    for v in ALL_VARIANTS:
        for _ in range(10):
            k = _random_k(rng, v.dimension, scale=1.2)
            if weyl.dispersion(v, k).omega[0] < 1e-2:
                continue
            velocity = np.asarray(weyl.dispersion(v, k).group_velocity)
            for j in range(v.dimension):
                dk = np.zeros(v.dimension)
                dk[j] = step
                fd = (
                    weyl.dispersion(v, k + dk).omega[0]
                    - weyl.dispersion(v, k - dk).omega[0]
                ) / (2 * step)
                assert abs(velocity[j] - fd) < 1e-6


def test_group_velocity_limit_near_origin():
    for v in ALL_VARIANTS:
        k = np.zeros(v.dimension)
        k[0] = 1e-4
        speed = np.linalg.norm(weyl.dispersion(v, k).group_velocity)
        assert abs(speed - 1.0 / np.sqrt(v.dimension)) < 1e-6, v.name


def test_group_velocity_bounded_by_one():
    rng = np.random.default_rng(7)
    for v in ALL_VARIANTS:
        for _ in range(200):
            k = _random_k(rng, v.dimension, scale=4.0)
            speed = np.linalg.norm(weyl.dispersion(v, k).group_velocity)
            assert speed <= 1.0 + 1e-9


TOUCHING_CASES = ALL_VARIANTS + tuple(
    weyl.WeylVariant(2, kind=kind, theta=theta)
    for theta in (np.pi / 4, np.pi / 2, np.pi) for kind in ("A", "B"))


@pytest.mark.parametrize("variant", TOUCHING_CASES, ids=lambda v: v.name)
def test_band_touching_velocity_is_exactly_zero_on_zone_grids(variant):
    # At a cone tip (u = +-1, so sin(omega) = 0) the gradient has no limit;
    # the direction average over the tip, +0.0, stands in exactly.
    from qca.cayley import build_presentation

    pres = build_presentation(variant.presentation_kind)
    d = variant.dimension
    for grid in (16, 24):
        axis = np.arange(grid) * (2.0 * np.pi / grid) - np.pi
        angles = np.stack(np.meshgrid(*[axis] * d, indexing="ij"), axis=-1).reshape(-1, d)
        k = pres.k_of_theta(angles)
        touch = np.abs(weyl.closed_form(variant, k)[0]) >= 1.0
        assert np.any(touch), grid
        velocity = weyl.dispersion(variant, k).group_velocity[touch]
        assert np.all(velocity == 0.0) and not np.any(np.signbit(velocity)), (grid, velocity)


def test_velocity_continuous_across_zone_face():
    # Crossing a zone face is a reciprocal translation: omega and the
    # gradient must agree between the face point and its translate.
    from qca.cayley import build_presentation

    v = weyl.WeylVariant(3)
    p = build_presentation("bcc_3d")
    c = np.sqrt(3.0) * np.pi
    k_face = np.array([c / 2.0, c / 2.0, 0.17])  # on the face kx + ky = c
    # nearest reciprocal vector normal to that face:
    recip = 2.0 * np.pi * p.dual_matrix
    best = None
    for coeffs in np.ndindex(3, 3, 3):
        vec = recip @ (np.array(coeffs) - 1)
        if np.linalg.norm(vec) < 1e-9:
            continue
        shifted = k_face - vec
        if best is None or np.linalg.norm(shifted) < np.linalg.norm(best[1]):
            best = (vec, shifted)
    shifted = best[1]
    s0 = weyl.dispersion(v, k_face)
    s1 = weyl.dispersion(v, shifted)
    assert abs(s0.omega[0] - s1.omega[0]) < 1e-10
    assert np.max(np.abs(np.asarray(s0.group_velocity) - s1.group_velocity)) < 1e-8


def test_helicity_norm_is_omega():
    rng = np.random.default_rng(8)
    for v in ALL_VARIANTS:
        for _ in range(30):
            k = _random_k(rng, v.dimension, scale=1.5)
            n = weyl.helicity_vector(v, k)
            assert abs(np.linalg.norm(n) - weyl.dispersion(v, k).omega[0]) < 1e-12


def test_interpolating_hamiltonian_zero_at_origin():
    for v in ALL_VARIANTS:
        h = weyl.interpolating_hamiltonian(v, np.zeros(v.dimension))
        assert maxabs(h) < 1e-14


def test_interpolating_hamiltonian_exponentiates_to_step():
    rng = np.random.default_rng(9)
    for v in ALL_VARIANTS + (weyl.WeylVariant(2, theta=0.4),):
        for _ in range(25):
            k = _random_k(rng, v.dimension, scale=1.4)
            h = weyl.interpolating_hamiltonian(v, k)
            assert maxabs(h - dagger(h)) < 1e-14
            assert maxabs(scipy.linalg.expm(-1j * h) - weyl.weyl_matrix(v, k)) < 1e-12


def test_interpolating_hamiltonian_1d_value():
    h = weyl.interpolating_hamiltonian(weyl.WeylVariant(1), [0.3])
    assert maxabs(h - 0.3 * SIGMA_Z) < 1e-15


def test_branch_point_guard():
    with pytest.raises(BranchPointError):
        weyl.interpolating_hamiltonian(weyl.WeylVariant(1), [np.pi - 1e-8])


@pytest.mark.parametrize("kind", ["A", "B"])
def test_small_k_branch_point_guard(kind):
    # theta = pi puts w0 = arccos u(0) at the logarithm's branch point, where f0 =
    # w0 / sin w0 has no finite value; within 1e-6 of it the expansion raises too.
    for theta in (np.pi, -np.pi, np.pi - 5e-7):
        with pytest.raises(BranchPointError):
            weyl.small_k_hamiltonian(weyl.WeylVariant(2, kind=kind, theta=theta), [0.01, 0.02])
    variant = weyl.WeylVariant(2, kind=kind, theta=np.pi - 1e-3)
    assert maxabs(weyl.small_k_hamiltonian(variant, [0.01, 0.02])) < 1e4


def test_small_k_zero_at_origin():
    for v in ALL_VARIANTS:
        assert maxabs(weyl.small_k_hamiltonian(v, np.zeros(v.dimension))) < 1e-14


def test_small_k_eigenvalues():
    rng = np.random.default_rng(10)
    for v in ALL_VARIANTS:
        for _ in range(20):
            k = _random_k(rng, v.dimension, scale=2.0)
            vals = np.linalg.eigvalsh(weyl.small_k_hamiltonian(v, k))
            expect = np.linalg.norm(k) / np.sqrt(v.dimension)
            assert np.allclose(vals, [-expect, expect], atol=1e-12), v.name
    vals = np.linalg.eigvalsh(
        weyl.small_k_hamiltonian(weyl.WeylVariant(3), [0.1, 0.0, 0.0])
    )
    assert np.allclose(vals, [-0.1 / np.sqrt(3), 0.1 / np.sqrt(3)], atol=1e-15)


GENERIC_DIRECTION = {
    2: np.array([0.8, -0.6]),
    3: np.array([0.64, 0.6, 0.48]),
}


def _loglog_slope(v, magnitudes):
    # Fixed generic ray: the residual prefactor is direction-dependent, so
    # the exponent is read off along one direction with no zero components.
    direction = GENERIC_DIRECTION[v.dimension]
    xs, ys = [], []
    for mag in magnitudes:
        k = mag * direction
        gap = maxabs(
            weyl.interpolating_hamiltonian(v, k) - weyl.small_k_hamiltonian(v, k)
        )
        xs.append(np.log(mag))
        ys.append(np.log(gap))
    return np.polyfit(xs, ys, 1)[0]


def test_small_k_residual_scaling():
    magnitudes = np.geomspace(1e-3, 1e-1, 12)
    for v in ALL_VARIANTS:
        if v.dimension == 1:
            # omega = k exactly: the interpolating Hamiltonian equals its
            # linearization, so the residual sits at the numeric floor.
            for mag in magnitudes:
                assert maxabs(
                    weyl.interpolating_hamiltonian(v, [mag])
                    - weyl.small_k_hamiltonian(v, [mag])
                ) < 1e-13
            continue
        slope = _loglog_slope(v, magnitudes)
        assert abs(slope - 2.0) < 0.1, (v.name, slope)


def test_theta_family_structure():
    rng = np.random.default_rng(12)
    theta = 0.6
    v = weyl.WeylVariant(2, theta=theta)
    q = np.cos(theta) * np.eye(2) + 1j * np.sin(theta) * SIGMA_X
    for _ in range(10):
        k = _random_k(rng, 2)
        base = weyl.weyl_matrix(weyl.WeylVariant(2), k)
        assert maxabs(weyl.weyl_matrix(v, k) - q @ base) < 1e-14
    # the angle shifts the band bottom to omega(0) = theta
    assert weyl.dispersion(v, np.zeros(2)).omega[0] == pytest.approx(theta, abs=1e-12)


def test_theta_small_k_is_taylor_expansion():
    v = weyl.WeylVariant(2, theta=0.5)
    rng = np.random.default_rng(13)
    for mag in (1e-3, 1e-2):
        k = mag * np.array([0.6, -0.8])
        gap = maxabs(
            weyl.interpolating_hamiltonian(v, k) - weyl.small_k_hamiltonian(v, k)
        )
        assert gap < 5.0 * mag ** 2


def test_variant_registry():
    assert weyl.variant_by_name("bcc-a-minus").sign == -1
    assert weyl.variant_by_name("weyl-2d", theta=0.3).theta == 0.3
    with pytest.raises(ValueError):
        weyl.variant_by_name("weyl-4d")
    with pytest.raises(ValueError):
        weyl.variant_by_name("weyl-1d", theta=0.3)


@pytest.mark.parametrize("theta", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_theta_is_rejected(theta):
    for dimension in (2, 3):
        with pytest.raises(ValueError, match="theta must be finite"):
            weyl.WeylVariant(dimension, theta=theta)
