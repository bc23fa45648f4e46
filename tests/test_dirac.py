"""Mass-coupled automaton: blocks, dispersion, Hamiltonians, coupling search."""

import itertools

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given
from hypothesis import strategies as st
from oracles import residual_and_jacobian_einsum, same_bits

from qca import dirac, weyl
from qca.errors import BranchPointError, QcaError
from qca.pauli import PAULI, dagger, maxabs, principal_phase

V3 = weyl.WeylVariant(3)
V2 = weyl.WeylVariant(2)
V1 = weyl.WeylVariant(1)


def _random_mk(rng, dim):
    return float(rng.uniform(0.0, 1.0)), rng.uniform(-1.5, 1.5, size=dim)


def test_massless_is_decoupled():
    dd = dirac.DiracDescriptor(weyl=V3, mass=0.0)
    rng = np.random.default_rng(1)
    for _ in range(5):
        k = rng.uniform(-2, 2, size=3)
        w = weyl.weyl_matrix(V3, k)
        expect = np.block(
            [[dagger(w), np.zeros((2, 2))], [np.zeros((2, 2)), w]]
        )
        assert maxabs(dirac.dirac_matrix(dd, k) - expect) == 0.0


def test_unit_mass_is_constant_flip():
    dd = dirac.DiracDescriptor(weyl=V3, mass=1.0)
    rng = np.random.default_rng(2)
    for _ in range(5):
        k = rng.uniform(-2, 2, size=3)
        d = dirac.dirac_matrix(dd, k)
        assert maxabs(d - 1j * dirac.GAMMA0) < 1e-15
        phases = np.sort(principal_phase(np.linalg.eigvals(d)))
        assert np.allclose(np.abs(phases), np.pi / 2.0, atol=1e-12)


def test_point_mass_spectrum():
    dd = dirac.DiracDescriptor(weyl=V3, mass=0.6)
    phases = np.sort(principal_phase(np.linalg.eigvals(dirac.dirac_matrix(dd, np.zeros(3)))))
    w = np.arccos(0.8)
    assert np.allclose(phases, [-w, -w, w, w], atol=1e-13)


def test_unitarity_bulk():
    rng = np.random.default_rng(3)
    for variant in (V1, V2, V3):
        for _ in range(300):
            m, k = _random_mk(rng, variant.dimension)
            dd = dirac.DiracDescriptor(weyl=variant, mass=m)
            d = dirac.dirac_matrix(dd, k)
            assert maxabs(dagger(d) @ d - np.eye(4)) < 1e-12


def test_gamma_form_equals_blocks():
    rng = np.random.default_rng(4)
    for _ in range(20):
        m, k = _random_mk(rng, 3)
        dd = dirac.DiracDescriptor(weyl=V3, mass=m)
        assert maxabs(dirac.dirac_matrix(dd, k) - dirac.gamma_form(dd, k)) < 1e-14


def test_dispersion_formula_matches_eigenphases():
    rng = np.random.default_rng(5)
    for variant in (V1, V2, V3):
        for _ in range(100):
            m, k = _random_mk(rng, variant.dimension)
            dd = dirac.DiracDescriptor(weyl=variant, mass=m)
            w = dirac.dirac_dispersion(dd, k).omega[0]
            phases = np.sort(principal_phase(np.linalg.eigvals(dirac.dirac_matrix(dd, k))))
            assert np.allclose(phases, [-w, -w, w, w], atol=1e-10)


def test_dispersion_massless_reduces_to_weyl():
    # Bit for bit, k = 0 (a band-touching point, where the velocity is 0)
    # included.
    rng = np.random.default_rng(6)
    for variant in weyl.named_variants().values():
        dd = dirac.DiracDescriptor(weyl=variant, mass=0.0)
        d = variant.dimension
        k = np.vstack([np.zeros(d), rng.uniform(-2, 2, size=(20, d))])
        got, want = dirac.dirac_dispersion(dd, k), weyl.dispersion(variant, k)
        for field in ("omega", "group_velocity"):
            assert same_bits(getattr(got, field), getattr(want, field)), field


def test_dispersion_small_mass_point():
    dd = dirac.DiracDescriptor(weyl=V3, mass=0.1)
    w = dirac.dirac_dispersion(dd, np.zeros(3)).omega[0]
    assert w == pytest.approx(np.arccos(np.sqrt(0.99)), abs=1e-14)


def test_eigenphase_double_degeneracy():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m, k = _random_mk(rng, 3)
        dd = dirac.DiracDescriptor(weyl=V3, mass=m)
        phases = np.sort(principal_phase(np.linalg.eigvals(dirac.dirac_matrix(dd, k))))
        assert abs(phases[0] - phases[1]) < 1e-9
        assert abs(phases[2] - phases[3]) < 1e-9


def test_mass_monotonicity():
    rng = np.random.default_rng(8)
    for _ in range(30):
        k = rng.uniform(-1.0, 1.0, size=3)
        if weyl.closed_form(V3, k)[0] <= 0.05:
            continue
        omegas = [
            dirac.dirac_dispersion(
                dirac.DiracDescriptor(weyl=V3, mass=m), k
            ).omega[0]
            for m in (0.0, 0.3, 0.6, 0.9)
        ]
        assert all(b > a for a, b in zip(omegas, omegas[1:]))


def test_interpolating_hamiltonian_roundtrip():
    rng = np.random.default_rng(9)
    for variant in (V1, V2, V3):
        for _ in range(25):
            m, k = _random_mk(rng, variant.dimension)
            dd = dirac.DiracDescriptor(weyl=variant, mass=min(m, 0.95))
            h = dirac.dirac_interpolating_hamiltonian(dd, k)
            assert maxabs(h - dagger(h)) < 1e-14
            assert maxabs(
                scipy.linalg.expm(-1j * h) - dirac.dirac_matrix(dd, k)
            ) < 1e-12


def test_interpolating_hamiltonian_values():
    dd0 = dirac.DiracDescriptor(weyl=V3, mass=0.0)
    assert maxabs(dirac.dirac_interpolating_hamiltonian(dd0, np.zeros(3))) < 1e-14
    dd = dirac.DiracDescriptor(weyl=V3, mass=0.3)
    vals = np.linalg.eigvalsh(dirac.dirac_interpolating_hamiltonian(dd, np.zeros(3)))
    w0 = np.arccos(np.sqrt(0.91))
    assert np.allclose(vals, [-w0, -w0, w0, w0], atol=1e-13)


def test_interpolating_branch_guard():
    dd = dirac.DiracDescriptor(weyl=V1, mass=0.0)
    with pytest.raises(BranchPointError):
        dirac.dirac_interpolating_hamiltonian(dd, [np.pi])


@pytest.mark.parametrize("kind", ["A", "B"])
def test_small_k_branch_point_guard(kind):
    # At m = 0 and theta = pi, w0 = arccos(n u(0)) = pi: the expansion raises as
    # the interpolating Hamiltonian does.  A mass moves w0 off the branch point.
    for theta in (np.pi, np.pi - 5e-7):
        dd = dirac.DiracDescriptor(weyl=weyl.WeylVariant(2, kind=kind, theta=theta), mass=0.0)
        with pytest.raises(BranchPointError):
            dirac.dirac_small_k_hamiltonian(dd, [0.01, 0.02])
        with pytest.raises(BranchPointError):
            dirac.dirac_interpolating_hamiltonian(dd, [0.0, 0.0])
    dd = dirac.DiracDescriptor(weyl=weyl.WeylVariant(2, kind=kind, theta=np.pi), mass=0.3)
    assert maxabs(dirac.dirac_small_k_hamiltonian(dd, [0.01, 0.02])) < 10.0


def test_small_k_values_at_origin():
    dd = dirac.DiracDescriptor(weyl=V3, mass=0.4)
    w0 = np.arccos(dd.n)
    f0 = w0 / np.sin(w0)
    vals = np.linalg.eigvalsh(dirac.dirac_small_k_hamiltonian(dd, np.zeros(3)))
    expect = dd.mass * f0
    assert np.allclose(vals, [-expect, -expect, expect, expect], atol=1e-13)


def test_small_k_eigenvalue_structure():
    # Eigenvalues of the literal expansion: +-f0 sqrt(n^2 |k|^2/d + m^2);
    # f0 = 1 + O(m^2) recovers the continuum form at small mass.
    rng = np.random.default_rng(10)
    for variant in (V1, V2, V3):
        d = variant.dimension
        for m in (0.0, 0.1, 0.5):
            dd = dirac.DiracDescriptor(weyl=variant, mass=m)
            w0 = np.arccos(dd.n)
            f0 = w0 / np.sin(w0) if m > 0 else 1.0
            assert abs(f0 - 1.0) <= m * m
            for _ in range(10):
                k = rng.uniform(-0.5, 0.5, size=d)
                vals = np.linalg.eigvalsh(dirac.dirac_small_k_hamiltonian(dd, k))
                expect = f0 * np.sqrt(dd.n ** 2 * (k @ k) / d + m * m)
                assert np.allclose(
                    vals, [-expect, -expect, expect, expect], atol=1e-12
                )


def test_small_k_matches_exact_at_tiny_parameters():
    dd = dirac.DiracDescriptor(weyl=V3, mass=0.01)
    k = np.array([0.02, 0.0, 0.0])
    approx = np.linalg.eigvalsh(dirac.dirac_small_k_hamiltonian(dd, k))[-1]
    exact = dirac.dirac_dispersion(dd, k).omega[0]
    naive = np.sqrt(k @ k / 3.0 + 0.01 ** 2)
    assert abs(approx - exact) < 1e-3
    assert abs(approx - naive) < 1e-3


def test_small_k_residual_scaling():
    # The theta members have a nonzero slope of omega at the origin, so their
    # expansion needs the first order of f = omega / sin(omega) too.
    direction = {1: np.array([1.0]), 2: np.array([0.8, -0.6]),
                 3: np.array([0.64, 0.6, 0.48])}
    theta_members = (weyl.WeylVariant(2, theta=0.3), weyl.WeylVariant(2, kind="B", theta=-1.1))
    cases = [(v, 0.1) for v in (V1, V2, V3)] + [
        (v, m) for v in theta_members for m in (0.0, 0.2, 0.6)]
    for variant, mass in cases:
        dd = dirac.DiracDescriptor(weyl=variant, mass=mass)
        xs, ys = [], []
        for mag in np.geomspace(1e-3, 1e-1, 12):
            k = mag * direction[variant.dimension]
            gap = maxabs(
                dirac.dirac_interpolating_hamiltonian(dd, k)
                - dirac.dirac_small_k_hamiltonian(dd, k)
            )
            xs.append(np.log(mag))
            ys.append(np.log(gap))
        slope = np.polyfit(xs, ys, 1)[0]
        assert abs(slope - 2.0) < 0.1, (variant.name, mass, slope)


def test_coupling_residual_family_is_unitary():
    rng = np.random.default_rng(11)
    ks = rng.uniform(-2, 2, size=(25, 3))
    for m in (0.0, 0.3, 0.8):
        n = np.sqrt(1 - m * m)
        res = dirac.coupling_unitarity_residual(
            n, 1j * m, 1j * m, n, np.eye(2), np.eye(2), V3, ks
        )
        assert res < 1e-12


def test_coupling_residual_witness():
    rng = np.random.default_rng(12)
    ks = rng.uniform(-2, 2, size=(25, 3))
    res = dirac.coupling_unitarity_residual(
        1.0, 0.4, 0.4, 0.4, np.eye(2), np.eye(2), V3, ks
    )
    assert res > 0.1


def test_coupling_residual_decoupled():
    rng = np.random.default_rng(13)
    ks = rng.uniform(-2, 2, size=(10, 3))
    res = dirac.coupling_unitarity_residual(
        1.0, 0.0, 0.0, 1.0, np.eye(2), np.eye(2), V3, ks
    )
    assert res < 1e-14


def _family_member(gamma, delta, m, block):
    """e^{i gamma} [[n e^{i delta} W', i m X], [i m X, n e^{-i delta} W]] as
    the probe's 12 complex parameters, with X = Y = block."""
    n = np.sqrt(1.0 - m * m)
    g = np.exp(1j * gamma)
    head = g * np.array([n * np.exp(1j * delta), 1j * m, 1j * m, n * np.exp(-1j * delta)])
    return np.concatenate([head, block.ravel(), block.ravel()])


@pytest.mark.parametrize("m", [0.0, 0.3, 0.8])
@pytest.mark.parametrize("variant, adjoint_first, block", [
    (V3, True, np.eye(2)),
    (V2, True, np.eye(2)),
    (V1, True, np.eye(2)),
    # In one dimension sigma_x W^+ sigma_x = W, so conjugating the member by
    # diag(sigma_x, I) puts it in the W' = W arrangement.
    (V1, False, PAULI[0]),
], ids=["3d-adjoint", "2d-adjoint", "1d-adjoint", "1d-plain"])
def test_dressed_family_fit_recovers_constructed_members(variant, adjoint_first, block, m):
    ks = np.random.default_rng(21).uniform(-1.5, 1.5, size=(50, variant.dimension))
    z = _family_member(0.7, 0.25, m, block)
    fit = dirac._dressed_family_fit(*dirac._verification_set(variant, ks), z, adjoint_first)
    assert fit is not None
    _, _, nu, worst = fit
    assert abs(nu - np.sqrt(1.0 - m * m)) <= 1e-9
    assert worst <= 1e-9


def test_dressed_family_fit_rejects_non_unitary_witness():
    ks = np.random.default_rng(22).uniform(-1.5, 1.5, size=(50, 3))
    z = np.concatenate([[1.0, 0.4, 0.4, 0.4], np.eye(2).ravel(), np.eye(2).ravel()])
    assert dirac._dressed_family_fit(*dirac._verification_set(V3, ks), z.astype(complex),
                                     True) is None


@pytest.mark.parametrize("n", [1, 2, 3])
def test_verification_set_needs_three_band_edge_free_points(n):
    # With fewer, the family fit cannot run and converged trials would read as off-family.
    ks = np.tile([0.5, 0.2, -0.3], (n, 1))
    omegas = weyl._omega(weyl.closed_form(V3, ks)[0])
    assert np.all((np.sin(omegas) >= 0.2) & (np.cos(omegas) >= 0.2))
    if n < 3:
        with pytest.raises(QcaError, match="--k-samples"):
            dirac._verification_set(V3, ks)
    else:
        ws, got_omegas, usable = dirac._verification_set(V3, ks)
        assert np.array_equal(ws, weyl.weyl_matrix(V3, ks)) and usable.all()
        assert np.array_equal(got_omegas, omegas)


@given(st.integers(3, 60).flatmap(
    lambda n: st.lists(st.floats(-1e300, 1e300), min_size=n, max_size=n)))
@example([0.0, -0.0, 0.0])  # np.mean's sum turns a middle -0.0 into 0.0
@example([-0.0, -0.0, 1.0, 2.0])
def test_median_matches_numpy_bit_for_bit(values):
    x = np.array(values)
    assert np.float64(dirac._median(x)).tobytes() == np.median(x).tobytes()


def _real_params(z):
    """Complex parameters as the solver's interleaved real and imaginary parts."""
    return np.stack([z.real, z.imag], axis=-1).ravel()


def _optimizer_wave_vectors(variant, seed):
    """W at the probe's number of optimizer wave-vectors, and their _residual_basis."""
    shape = (dirac._N_K_OPTIMIZE, variant.dimension)
    ks = np.random.default_rng(seed).uniform(-1.5, 1.5, size=shape)
    return weyl.weyl_matrix(variant, ks), dirac._residual_basis(variant, ks)


class _RiggedGenerator:
    """The probe's generator with chosen entries of chosen trials' starts set to a value."""

    def __init__(self, rng, rigs):
        self.rng, self.rigs, self.trial = rng, rigs, 0

    def integers(self, *args):
        return self.rng.integers(*args)

    def normal(self, **kwargs):
        start = self.rng.normal(**kwargs)
        entries, value = self.rigs.get(self.trial, ([], 0.0))
        start[entries] = value
        self.trial += 1
        return start


def _probe_with_evaluations(setup, n_seeds, monkeypatch):
    """The probe's report, fits and per-trial evaluations, read from the batched solver."""
    real, seen = dirac._levenberg_marquardt, []

    def recorded(fun, x):
        seen.append(real(fun, x))
        return seen[-1]

    monkeypatch.setattr(dirac, "_levenberg_marquardt", recorded)
    report = dirac.uniqueness_probe(setup, n_seeds=n_seeds)
    monkeypatch.undo()
    assert len(seen) == 1  # one batched solve for every trial
    return report, seen[0][0], seen[0][1]


def test_probe_counts_optimizer_failures(monkeypatch):
    # Trial 1 starts at q = 0 and X = 0, where the q and X columns of J vanish: its
    # normal matrix is singular and the batched solve raises.  Only that trial fails;
    # the others run as they do without it.
    variant, rng, basis, ver = dirac.probe_setup(seed=4, n_k_verify=25)
    state = rng.bit_generator.state
    clean, clean_fits, clean_nfev = _probe_with_evaluations(
        (variant, rng, basis, ver), 5, monkeypatch)
    rng.bit_generator.state = state
    rigged = _RiggedGenerator(rng, {1: ([2, 3] + list(range(8, 16)), 0.0)})
    report, fits, nfev = _probe_with_evaluations((variant, rigged, basis, ver), 5, monkeypatch)
    assert rigged.trial == 5
    assert report["optimizer_failures"] == 1
    classes = (report["decoupled_endpoint"] + report["flip_endpoint"]
               + report["dressed_family"] + report["off_family_hits"])
    assert classes == report["converged_unitary"] <= report["trials"] - 1
    assert np.isnan(fits[1]).all() and nfev[1] == 1
    others = [0, 2, 3, 4]
    assert clean["optimizer_failures"] == 0
    assert np.array_equal(nfev[others], clean_nfev[others])
    assert np.allclose(fits[others], clean_fits[others], rtol=0.0, atol=1e-12)


def test_non_finite_step_fails_only_its_trial():
    _, basis = _optimizer_wave_vectors(V3, 35)
    starts = np.random.default_rng(35).normal(size=(3, 24))
    flags = np.array([True, False, True])

    def fun(y, trials):
        return dirac._residual_and_jacobian(y, basis, flags[trials])

    clean_fits, clean_nfev = dirac._levenberg_marquardt(fun, starts)
    starts[1, 0] = np.inf
    with np.errstate(invalid="ignore"):
        fits, nfev = dirac._levenberg_marquardt(fun, starts)
    assert np.isnan(fits[1]).all() and nfev[1] == 1
    assert np.array_equal(nfev[[0, 2]], clean_nfev[[0, 2]])
    assert np.allclose(fits[[0, 2]], clean_fits[[0, 2]], rtol=0.0, atol=1e-12)


def test_probe_counts_non_finite_fits_as_failures(monkeypatch):
    # A NaN residual compares False with the tolerance; it must not pass as converged.
    monkeypatch.setattr(dirac, "_levenberg_marquardt",
                        lambda fun, x: (np.full(x.shape, np.nan), np.ones(len(x), dtype=int)))
    report = dirac.uniqueness_probe(dirac.probe_setup(seed=4, n_k_verify=25), n_seeds=3)
    assert report["optimizer_failures"] == 3
    assert report["converged_unitary"] == 0


def test_solve_fails_only_the_singular_systems():
    rng = np.random.default_rng(5)
    normal = rng.normal(size=(4, 3, 3))
    normal[[1, 2], :, 0] = normal[[1, 2], 0, :] = 0.0
    rhs = rng.normal(size=(4, 3))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(normal, rhs[..., None])
    step = dirac._solve(normal, rhs)
    assert np.isnan(step[[1, 2]]).all()
    for i in (0, 3):
        assert np.array_equal(step[i], np.linalg.solve(normal[i], rhs[i]))


@pytest.mark.parametrize("adjoint_first", [True, False])
def test_residual_jacobian_matches_central_differences(adjoint_first):
    rng = np.random.default_rng(31)
    _, basis = _optimizer_wave_vectors(V3, 31)
    flags = np.array([adjoint_first])
    x = rng.normal(size=(1, 24))
    res, jac_t = dirac._residual_and_jacobian(x, basis, flags)
    assert res.shape == (1, 48) and jac_t.shape == (1, 24, 48)

    def residual(y):
        return dirac._residual_and_jacobian(y[None], basis, flags)[0][0]

    h = 1e-6
    central = np.stack([(residual(x[0] + e) - residual(x[0] - e)) / (2 * h)
                        for e in h * np.eye(24)])
    # Roundoff of the differences is about 1e-9 here, against entries of order 10.
    assert maxabs(jac_t[0] - central) <= 1e-7


def _hard_case(z, case):
    """Random parameters with the named ones set to zero."""
    z = z.copy()
    z[{"random": [], "q=0": [1], "r=0": [2], "p=t=0": [0, 3]}[case]] = 0.0
    return z


@pytest.mark.parametrize("case", ["random", "q=0", "r=0", "p=t=0"])
@pytest.mark.parametrize("adjoint_first", [True, False])
def test_block_jacobian_matches_einsum_oracle(adjoint_first, case):
    # The 48-entry residual has the cost, gradient J^T f and normal matrix J^T J of
    # the 16 entries per wave-vector, for a batch with both flags.
    rng = np.random.default_rng(41)
    ws, basis = _optimizer_wave_vectors(V3, 41)
    x = np.stack([_real_params(_hard_case(rng.normal(size=12) + 1j * rng.normal(size=12), case))
                  for _ in range(6)])
    flags = np.array([adjoint_first, not adjoint_first] * 3)
    res, jac_t = dirac._residual_and_jacobian(x, basis, flags)
    assert res.shape == (6, 48) and jac_t.shape == (6, 24, 48)
    for i in range(6):
        want_res, want_jac = residual_and_jacobian_einsum(x[i], ws, flags[i])
        assert want_jac.shape == (12 * 32, 24)
        assert abs(res[i] @ res[i] - want_res @ want_res) <= 1e-13 * (want_res @ want_res)
        grad = want_jac.T @ want_res
        assert maxabs(jac_t[i] @ res[i] - grad) <= 1e-13 * maxabs(grad)
        normal = want_jac.T @ want_jac
        assert maxabs(jac_t[i] @ jac_t[i].T - normal) <= 1e-13 * maxabs(normal)
    if case == "q=0":  # the X_ab columns vanish
        assert not jac_t[:, 8:16].any()
    if case == "r=0":  # the Y_ab columns vanish
        assert not jac_t[:, 16:24].any()


def test_probe_trajectory_is_pinned_at_seed_7(monkeypatch):
    # Per-trial residual evaluations and classes of `qca dirac-search --samples
    # 8 --seed 7`; the masses are those of the per-wave-vector residual, to 1e-10.
    report, _, nfev = _probe_with_evaluations(dirac.probe_setup(seed=7), 8, monkeypatch)
    assert nfev.tolist() == [9, 9, 10, 16, 10, 8, 9, 8]
    assert (report["optimizer_failures"], report["converged_unitary"]) == (0, 8)
    assert (report["decoupled_endpoint"], report["flip_endpoint"],
            report["dressed_family"], report["off_family_hits"]) == (1, 5, 2, 0)
    assert np.allclose(report["family_masses"], [0.9978303048860502, 0.25537667741802733],
                       rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("variant, adjoint_first, block", [
    (V3, True, np.eye(2)),
    (V1, False, PAULI[0]),
], ids=["3d-adjoint", "1d-plain"])
def test_levenberg_marquardt_returns_to_the_family(variant, adjoint_first, block):
    rng = np.random.default_rng(33)
    ws, basis = _optimizer_wave_vectors(variant, 33)
    start = _real_params(_family_member(0.7, 0.25, 0.3, block)) + 0.05 * rng.normal(size=24)
    assert maxabs(residual_and_jacobian_einsum(start, ws, adjoint_first)[0]) > 1e-2
    fits, nfev = dirac._levenberg_marquardt(
        lambda y, trials: dirac._residual_and_jacobian(y, basis, np.array([adjoint_first])),
        start[None])
    assert 1 < nfev[0] < dirac._MAX_NFEV
    assert maxabs(residual_and_jacobian_einsum(fits[0], ws, adjoint_first)[0]) < 1e-12


def test_batched_trials_match_trials_run_alone():
    variant, rng, basis, _ = dirac.probe_setup(seed=7)
    flags = rng.integers(0, 2, size=6).astype(bool)
    starts = rng.normal(size=(6, 24))
    fits, nfev = dirac._levenberg_marquardt(
        lambda y, trials: dirac._residual_and_jacobian(y, basis, flags[trials]), starts)
    for i in range(6):
        fit, count = dirac._levenberg_marquardt(
            lambda y, trials: dirac._residual_and_jacobian(y, basis, flags[i:i + 1]),
            starts[i:i + 1])
        assert count[0] == nfev[i]
        assert np.allclose(fit[0], fits[i], rtol=0.0, atol=1e-12)


def test_d1_decomposes_into_identical_pair():
    # Search the 4! basis permutations for one that block-diagonalizes the
    # one-dimensional automaton into two equal 2x2 blocks at every k.
    dd = dirac.DiracDescriptor(weyl=V1, mass=0.35)
    ks = [np.array([x]) for x in (-2.0, -0.7, 0.3, 1.1, 2.9)]
    mats = [dirac.dirac_matrix(dd, k) for k in ks]
    found = False
    for perm in itertools.permutations(range(4)):
        p = np.zeros((4, 4))
        for row, col in enumerate(perm):
            p[row, col] = 1.0
        ok = True
        for mat in mats:
            t = p @ mat @ p.T
            if maxabs(t[:2, 2:]) > 1e-13 or maxabs(t[2:, :2]) > 1e-13:
                ok = False
                break
            if maxabs(t[:2, :2] - t[2:, 2:]) > 1e-13:
                ok = False
                break
        if ok:
            found = True
            break
    assert found


def test_uniqueness_probe_smoke():
    report = dirac.uniqueness_probe(dirac.probe_setup(seed=4, n_k_verify=25), n_seeds=10)
    assert report["trials"] == 10
    assert report["off_family_hits"] == 0
    assert report["converged_unitary"] > 0


def test_mass_validation():
    with pytest.raises(ValueError):
        dirac.DiracDescriptor(weyl=V3, mass=1.5)
