"""Two-field electromagnetic sector: bilinears, precession, polarization."""

import numpy as np
import pytest
import scipy.linalg

from qca import maxwell, weyl
from qca.pauli import cross_matrix, maxabs, rotation_about

VARIANTS_3D = tuple(
    weyl.WeylVariant(3, kind=kind, sign=sign)
    for kind in ("A", "B")
    for sign in (1, -1)
)


def _random_spinors(seed):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    phi = rng.normal(size=2) + 1j * rng.normal(size=2)
    return psi / np.linalg.norm(psi), phi / np.linalg.norm(phi)


def test_bilinear_basis_case():
    g = maxwell.bilinear_G([1.0, 0.0], [1.0, 0.0])
    assert np.allclose(g, [0.0, 0.0, 1.0])


def test_bilinear_zero_field():
    assert np.allclose(maxwell.bilinear_G([0.0, 0.0], [1.0, 2.0]), 0.0)


def test_bilinear_swap_symmetry():
    # sigma_x, sigma_z are symmetric; sigma_y is antisymmetric.
    psi, phi = _random_spinors(0)
    fwd = maxwell.bilinear_G(psi, phi)
    rev = maxwell.bilinear_G(phi, psi)
    assert abs(fwd[0] - rev[0]) < 1e-14
    assert abs(fwd[2] - rev[2]) < 1e-14
    assert abs(fwd[1] + rev[1]) < 1e-14


def test_transverse_projection_cases():
    k = np.array([0.4, 0.1, -0.2])
    n = maxwell.helicity_half(k)
    unit = n / np.linalg.norm(n)
    assert maxabs(maxwell.transverse_project(3.3 * unit, n)) < 1e-14
    rng = np.random.default_rng(1)
    perp = np.cross(unit, rng.normal(size=3))
    assert maxabs(maxwell.transverse_project(perp, n) - perp) < 1e-13
    g = rng.normal(size=3) + 1j * rng.normal(size=3)
    gt = maxwell.transverse_project(g, n)
    assert abs(n @ gt) < 1e-14
    assert maxabs(maxwell.transverse_project(gt, n) - gt) < 1e-14


def test_transverse_projection_origin_error():
    with pytest.raises(ValueError):
        maxwell.transverse_project(np.ones(3), maxwell.helicity_half(np.zeros(3)))


def test_transversality_preserved_in_time():
    psi, phi = _random_spinors(2)
    k = np.array([0.5, -0.3, 0.7])
    n = maxwell.helicity_half(k)
    for t in np.linspace(0.0, 10.0, 7):
        gt = maxwell.transverse_bilinear(psi, phi, n, t)
        assert abs(n @ gt) < 1e-14


def test_rotation_form_matches_spinor_recomputation():
    rng = np.random.default_rng(3)
    for trial in range(10):
        psi, phi = _random_spinors(trial + 10)
        k = rng.uniform(-1.2, 1.2, size=3)
        if np.linalg.norm(k) < 0.1:
            continue
        n = maxwell.helicity_half(k)
        for t in np.linspace(0.0, 10.0, 6):
            lhs = maxwell.rotation_form(psi, phi, n, t)
            rhs = maxwell.transverse_bilinear(psi, phi, n, t)
            assert maxabs(lhs - rhs) < 1e-11


def test_finite_difference_residual_converges_quadratically():
    psi, phi = _random_spinors(4)
    k = np.array([0.6, 0.2, -0.4])
    dts = np.array([0.2, 0.1, 0.05, 0.025])
    residuals = [
        maxwell.mode_maxwell_residual(psi, phi, k, dt)["finite_difference"]
        for dt in dts
    ]
    slope = np.polyfit(np.log(dts), np.log(residuals), 1)[0]
    assert abs(slope - 2.0) < 0.2


def test_residuals_propagate_nan():
    # dt = 0 makes every central difference 0/0; max(0.0, nan) would hide it.
    psi, phi = _random_spinors(7)
    with np.errstate(divide="ignore", invalid="ignore"):
        report = maxwell.mode_maxwell_residual(psi, phi, np.array([0.1, 0.0, 0.0]), 0.0)
    assert report["rotation_vs_spinor"] < 1e-11
    assert report["transversality_E"] < 1e-13
    for value in (report["finite_difference"], report["dynamics_E"], report["dynamics_B"],
                  report["max_residual"]):
        assert np.isnan(value)


def test_field_equations_residuals_small():
    psi, phi = _random_spinors(5)
    k = np.array([0.3, 0.5, -0.1])
    report = maxwell.mode_maxwell_residual(psi, phi, k, 1e-4)
    assert report["transversality_E"] < 1e-14
    assert report["transversality_B"] < 1e-14
    assert report["dynamics_E"] < 1e-8
    assert report["dynamics_B"] < 1e-8
    assert report["rotation_vs_spinor"] < 1e-11


def test_electric_field_real_for_conjugate_pair():
    rng = np.random.default_rng(6)
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    phi = np.conj(psi)
    n = maxwell.helicity_half(np.array([0.2, 0.4, 0.6]))
    gt = maxwell.transverse_bilinear(psi, phi, n, 0.0)
    e_field, b_field = maxwell.electric_magnetic(gt, n)
    assert maxabs(e_field.imag) < 1e-13
    assert maxabs(b_field.imag) < 1e-13


def test_variant_independence_of_residuals():
    # The construction goes through with any of the four variants.
    psi, phi = _random_spinors(7)
    k = np.array([0.45, -0.25, 0.35])
    for variant in VARIANTS_3D:
        report = maxwell.mode_maxwell_residual(psi, phi, k, 1e-4, variant=variant)
        assert report["rotation_vs_spinor"] < 1e-11, variant.name
        assert report["transversality_E"] < 1e-14, variant.name


def test_angular_momentum_identity():
    assert maxwell.angular_momentum_identity_residual(np.zeros(3)) < 1e-15
    res = maxwell.angular_momentum_identity_residual([np.pi, 0.0, 0.0])
    assert res < 1e-13
    rng = np.random.default_rng(8)
    for _ in range(25):
        v = rng.uniform(-1.0, 1.0, size=3)
        v *= rng.uniform(0.0, 2.0 * np.pi) / max(np.linalg.norm(v), 1e-12)
        assert maxwell.angular_momentum_identity_residual(v) < 1e-12


def test_binary_rotation_flips_other_paulis():
    # Rotation by pi about x sends sigma_y -> -sigma_y and sigma_z -> -sigma_z.
    from qca.pauli import PAULI, su2_exp

    u = su2_exp(np.array([np.pi, 0.0, 0.0]) / 2.0)
    assert maxabs(u @ PAULI[1] @ u.conj().T + PAULI[1]) < 1e-13
    assert maxabs(u @ PAULI[2] @ u.conj().T + PAULI[2]) < 1e-13


def test_rotation_about_matches_expm():
    rng = np.random.default_rng(9)
    for _ in range(10):
        v = rng.uniform(-2, 2, size=3)
        assert maxabs(
            rotation_about(v) - scipy.linalg.expm(cross_matrix(v))
        ) < 1e-13


def test_precession_deviation_small_k():
    rng = np.random.default_rng(10)
    for variant in VARIANTS_3D:
        for _ in range(40):
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            k = rng.uniform(0.0, 0.3) * direction
            assert maxwell.precession_deviation(k, variant) < 1e-2, variant.name


def test_precession_deviation_grows_toward_zone_scale():
    direction = np.array([0.64, 0.6, 0.48])
    mags = np.linspace(0.3, 3.0, 8)
    devs = [maxwell.precession_deviation(m * direction) for m in mags]
    assert all(b > a for a, b in zip(devs, devs[1:]))


def test_polarization_canonical_gauge():
    # helicity along +z at a small k on the z axis
    k = np.array([0.0, 0.0, 0.3])
    u1, u2 = maxwell.polarization_basis(k)
    n = weyl.helicity_vector(weyl.WeylVariant(3), k)
    assert abs(abs(n[2]) - np.linalg.norm(n)) < 1e-12
    expected_u1 = np.array([1.0, 0.0, 0.0]) * np.sign(n[2])
    assert np.allclose(np.abs(u1), [1.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(np.abs(u2), [0.0, 1.0, 0.0], atol=1e-12)
    assert np.cross(u1, u2) @ n > 0


def test_polarization_constraints_random():
    rng = np.random.default_rng(11)
    for _ in range(30):
        k = rng.uniform(-1.5, 1.5, size=3)
        n = weyl.helicity_vector(weyl.WeylVariant(3), k)
        if np.linalg.norm(n) < 1e-6:
            continue
        u1, u2 = maxwell.polarization_basis(k)
        assert abs(u1 @ n) < 1e-13
        assert abs(u2 @ n) < 1e-13
        assert abs(u1 @ u2) < 1e-14
        assert abs(np.linalg.norm(u1) - 1.0) < 1e-14
        assert abs(np.linalg.norm(u2) - 1.0) < 1e-14
        assert np.cross(u1, u2) @ n > 0


def test_polarization_origin_error():
    with pytest.raises(ValueError):
        maxwell.polarization_basis(np.zeros(3))
