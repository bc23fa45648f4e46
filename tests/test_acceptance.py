"""Acceptance suite: one test per criterion, printed pass/fail lines.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines and timings.  Tolerances are pinned here, not configurable.
"""

import time
import warnings
import zlib

import numpy as np
import scipy.linalg

from qca import catalog, dirac, evolution, fock, maxwell, weyl
from qca.automaton import assemble, check_covariance, check_unitarity_conditions
from qca.cayley import make_tiling
from qca.pauli import maxabs, principal_phase

from oracles import packet_velocity, spectral_steps

ALGEBRA_TOL = 1e-12
EIGEN_TOL = 1e-10
ORACLE_TOL = 1e-10
SLOPE_BAND = 0.1

WEYL_NAMES = (
    "weyl-1d", "weyl-2d", "weyl-2d-b",
    "bcc-a-plus", "bcc-a-minus", "bcc-b-plus", "bcc-b-minus",
)
DIRAC_MASSES = (0.0, 0.1, 0.5, 0.9)

GENERIC_DIRECTION = {
    1: np.array([1.0]),
    2: np.array([0.8, -0.6]),
    3: np.array([0.64, 0.6, 0.48]),
}


def _report(number, label, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance {number:2d}] {label}: {status} ({detail})")
    assert passed, f"criterion {number} failed: {detail}"


def _sample_zone(presentation, count, seed):
    """Uniform zone samples by vectorized rejection from the bounding box."""
    rng = np.random.default_rng(seed)
    radius = max(c / np.max(np.abs(normal)) for normal, c in presentation.bz.bounds)
    normals = np.array([n for n, _ in presentation.bz.bounds])
    cs = np.array([c for _, c in presentation.bz.bounds])
    out = []
    while len(out) < count:
        batch = rng.uniform(-radius, radius, size=(4 * count, presentation.dimension))
        inside = np.all(batch @ normals.T <= cs[None, :], axis=1)
        out.extend(batch[inside][: count - len(out)])
    return np.array(out)


def _assemble_at(descriptor, ks):
    """Stacked A(k) for an (N, d) array of Cartesian wave-vectors."""
    pres = descriptor.presentation
    return assemble(descriptor.rule, pres, (np.atleast_2d(ks) @ pres.basis_matrix).T)


def _all_descriptors():
    out = [(name, catalog.build_descriptor(name)) for name in WEYL_NAMES]
    for dim_name in ("dirac-1d", "dirac-2d", "dirac-3d"):
        for mass in DIRAC_MASSES:
            out.append(
                (f"{dim_name}(m={mass})", catalog.build_descriptor(dim_name, mass=mass))
            )
    return out


def test_criterion_01_unitarity_suite():
    started = time.perf_counter()
    worst_rule = worst_operator = 0.0
    for name, descriptor in _all_descriptors():
        rule_report = check_unitarity_conditions(descriptor.rule, descriptor.presentation)
        worst_rule = max(worst_rule, rule_report["max_residual"])
        ks = _sample_zone(descriptor.presentation, 1000, seed=zlib.crc32(name.encode()))
        mats = _assemble_at(descriptor, ks)
        s = descriptor.internal_dim
        residual = maxabs(
            np.einsum("nba,nbc->nac", mats.conj(), mats) - np.eye(s)
        )
        worst_operator = max(worst_operator, residual)
    elapsed = time.perf_counter() - started
    _report(
        1,
        "unitarity suite",
        worst_rule < ALGEBRA_TOL and worst_operator < ALGEBRA_TOL and elapsed < 5.0,
        f"rule={worst_rule:.2e} operator={worst_operator:.2e} time={elapsed:.2f}s",
    )


def test_criterion_02_covariance_suite():
    started = time.perf_counter()
    worst = 0.0
    for name in ("bcc-a-plus", "bcc-a-minus", "bcc-b-plus", "bcc-b-minus",
                 "weyl-2d", "weyl-2d-b"):
        descriptor = catalog.build_descriptor(name)
        worst = max(worst, check_covariance(descriptor)["max_residual"])
    elapsed = time.perf_counter() - started
    _report(
        2,
        "covariance suite",
        worst < ALGEBRA_TOL and elapsed < 1.0,
        f"worst={worst:.2e} time={elapsed:.2f}s",
    )


def _wrapped_gap(a, b):
    return np.abs(np.angle(np.exp(1j * (a - b))))


def test_criterion_03_dispersion_identities():
    worst = 0.0
    for name in WEYL_NAMES:
        descriptor = catalog.build_descriptor(name)
        variant = weyl.variant_by_name(name)
        ks = _sample_zone(descriptor.presentation, 1000, seed=301)
        mats = _assemble_at(descriptor, ks)
        phases = np.sort(principal_phase(np.linalg.eigvals(mats)), axis=1)
        expect = np.array([weyl.dispersion(variant, k).omega[0] for k in ks])
        gap = np.max(_wrapped_gap(phases, np.stack([-expect, expect], axis=1)))
        worst = max(worst, gap)
    for dim_name in ("dirac-1d", "dirac-2d", "dirac-3d"):
        for mass in (0.1, 0.5):
            descriptor = catalog.build_descriptor(dim_name, mass=mass)
            dd = dirac.DiracDescriptor(
                weyl=catalog.builtin_variant(dim_name), mass=mass
            )
            ks = _sample_zone(descriptor.presentation, 1000, seed=302)
            mats = _assemble_at(descriptor, ks)
            phases = np.sort(principal_phase(np.linalg.eigvals(mats)), axis=1)
            expect = np.array([dirac.dirac_dispersion(dd, k).omega[0] for k in ks])
            model = np.stack([-expect, -expect, expect, expect], axis=1)
            worst = max(worst, np.max(_wrapped_gap(phases, model)))
    ok_bulk = worst < EIGEN_TOL

    # one-dimensional exact linearity across the closed zone
    d1 = catalog.build_descriptor("weyl-1d")
    worst_1d = 0.0
    for k in np.linspace(-np.pi, np.pi, 2001):
        mat = _assemble_at(d1, [[k]])[0]
        phases = np.sort(principal_phase(np.linalg.eigvals(mat)))
        worst_1d = max(
            worst_1d, float(np.max(_wrapped_gap(phases, np.array([-abs(k), abs(k)]))))
        )
    _report(
        3,
        "dispersion identities",
        ok_bulk and worst_1d < ALGEBRA_TOL,
        f"bulk={worst:.2e} line={worst_1d:.2e}",
    )


def test_criterion_04_oracle_equivalence():
    started = time.perf_counter()
    cases = [
        ("weyl-1d", (64,)),
        ("dirac-1d", (64,)),
        ("weyl-2d", (32, 32)),
        ("dirac-2d", (32, 32)),
        ("bcc-a-plus", (16, 16, 16)),
        ("dirac-3d", (16, 16, 16)),
    ]
    worst = 0.0
    for name, sizes in cases:
        descriptor = catalog.build_descriptor(
            name, mass=0.3 if name.startswith("dirac") else None
        )
        lattice = evolution.LatticeSpec(
            presentation=descriptor.presentation, sizes=sizes
        )
        rng = np.random.default_rng(41)
        state = evolution.random_state(lattice, descriptor.internal_dim, rng)
        spectral = spectral_steps(state, descriptor, 5)
        direct = state
        for _ in range(5):
            direct = evolution.step_direct(direct, descriptor)
        worst = max(worst, maxabs(spectral.amplitudes - direct.amplitudes))
    elapsed = time.perf_counter() - started
    _report(
        4,
        "oracle equivalence",
        worst < ORACLE_TOL and elapsed < 30.0,
        f"worst={worst:.2e} time={elapsed:.2f}s",
    )


def test_criterion_05_interpolating_hamiltonian():
    rng = np.random.default_rng(51)
    worst_exp = 0.0
    for name in WEYL_NAMES:
        variant = weyl.variant_by_name(name)
        for _ in range(40):
            k = rng.uniform(-1.4, 1.4, size=variant.dimension)
            h = weyl.interpolating_hamiltonian(variant, k)
            worst_exp = max(
                worst_exp,
                maxabs(scipy.linalg.expm(-1j * h) - weyl.weyl_matrix(variant, k)),
            )
    for dim in (1, 2, 3):
        for mass in (0.1, 0.5):
            dd = dirac.DiracDescriptor(
                weyl=catalog.builtin_variant(f"dirac-{dim}d"), mass=mass
            )
            for _ in range(40):
                k = rng.uniform(-1.4, 1.4, size=dim)
                h = dirac.dirac_interpolating_hamiltonian(dd, k)
                worst_exp = max(
                    worst_exp,
                    maxabs(scipy.linalg.expm(-1j * h) - dirac.dirac_matrix(dd, k)),
                )

    # plane-wave mode: continuous interpolation at integer times equals steps
    worst_wave = 0.0
    descriptor = catalog.build_descriptor("bcc-a-plus")
    variant = weyl.variant_by_name("bcc-a-plus")
    sizes = (8, 8, 8)
    lattice = evolution.LatticeSpec(presentation=descriptor.presentation, sizes=sizes)
    for mode in ((1, 3, 2), (5, 0, 7)):
        theta = 2.0 * np.pi * np.array(mode) / 8.0
        k = descriptor.presentation.k_of_theta(theta)
        h = weyl.interpolating_hamiltonian(variant, k)
        sites = np.stack(np.meshgrid(*[np.arange(8)] * 3, indexing="ij"), axis=-1)
        phase = np.exp(1j * np.tensordot(sites, theta, axes=1))
        vals, vecs = np.linalg.eigh(h)
        for t in (1, 7):
            for branch in (0, 1):
                amps = phase[..., None] * vecs[:, branch]
                amps = amps / np.linalg.norm(amps)
                state = evolution.FieldState(
                    lattice=lattice, internal_dim=2, amplitudes=amps
                )
                stepped = spectral_steps(state, descriptor, t)
                analytic = amps * np.exp(-1j * vals[branch] * t)
                worst_wave = max(worst_wave, maxabs(stepped.amplitudes - analytic))
    _report(
        5,
        "interpolating Hamiltonian",
        worst_exp < ALGEBRA_TOL and worst_wave < ORACLE_TOL,
        f"exp={worst_exp:.2e} plane-wave={worst_wave:.2e}",
    )


def test_criterion_06_relativistic_limit_scaling():
    magnitudes = np.geomspace(1e-3, 1e-1, 12)
    slopes = {}
    floor_1d = 0.0
    for name in WEYL_NAMES:
        variant = weyl.variant_by_name(name)
        direction = GENERIC_DIRECTION[variant.dimension]
        gaps = [
            maxabs(
                weyl.interpolating_hamiltonian(variant, m * direction)
                - weyl.small_k_hamiltonian(variant, m * direction)
            )
            for m in magnitudes
        ]
        if variant.dimension == 1:
            # omega = k exactly: the expansion is exact, residual at the
            # float floor, so a slope fit is meaningless here.
            floor_1d = max(gaps)
            continue
        slopes[name] = np.polyfit(np.log(magnitudes), np.log(gaps), 1)[0]
    for dim in (1, 2, 3):
        dd = dirac.DiracDescriptor(
            weyl=catalog.builtin_variant(f"dirac-{dim}d"), mass=0.1
        )
        direction = GENERIC_DIRECTION[dim]
        gaps = [
            maxabs(
                dirac.dirac_interpolating_hamiltonian(dd, m * direction)
                - dirac.dirac_small_k_hamiltonian(dd, m * direction)
            )
            for m in magnitudes
        ]
        slopes[f"dirac-{dim}d"] = np.polyfit(np.log(magnitudes), np.log(gaps), 1)[0]
    slopes_ok = all(abs(s - 2.0) < SLOPE_BAND for s in slopes.values())

    rng = np.random.default_rng(61)
    worst_weyl = 0.0
    for name in WEYL_NAMES:
        variant = weyl.variant_by_name(name)
        for _ in range(30):
            k = rng.uniform(-1.0, 1.0, size=variant.dimension)
            vals = np.linalg.eigvalsh(weyl.small_k_hamiltonian(variant, k))
            expect = np.linalg.norm(k) / np.sqrt(variant.dimension)
            worst_weyl = max(worst_weyl, float(np.max(np.abs(vals - [-expect, expect]))))

    # Linearized mass-coupled spectrum: +-f0 sqrt(n^2|k|^2/d + m^2) exactly,
    # with f0 = omega0/sin(omega0) = 1 + O(m^2) multiplying the whole
    # expansion (f0 -> 1 recovers the continuum form; checked below).
    worst_dirac = 0.0
    f0_ok = True
    for dim in (1, 2, 3):
        m = 0.1
        dd = dirac.DiracDescriptor(
            weyl=catalog.builtin_variant(f"dirac-{dim}d"), mass=m
        )
        w0 = np.arccos(dd.n)
        f0 = w0 / np.sin(w0)
        f0_ok = f0_ok and abs(f0 - 1.0) <= m * m
        for _ in range(30):
            k = rng.uniform(-1.0, 1.0, size=dim)
            vals = np.linalg.eigvalsh(dirac.dirac_small_k_hamiltonian(dd, k))
            expect = f0 * np.sqrt(dd.n ** 2 * (k @ k) / dim + m * m)
            model = np.array([-expect, -expect, expect, expect])
            worst_dirac = max(worst_dirac, float(np.max(np.abs(vals - model))))

    detail = (
        f"slopes={{{', '.join(f'{k}:{v:.3f}' for k, v in sorted(slopes.items()))}}} "
        f"line-floor={floor_1d:.1e} weyl-eig={worst_weyl:.2e} "
        f"dirac-eig={worst_dirac:.2e}"
    )
    _report(
        6,
        "relativistic-limit scaling",
        slopes_ok
        and floor_1d < 1e-13
        and worst_weyl < ALGEBRA_TOL
        and worst_dirac < ALGEBRA_TOL
        and f0_ok,
        detail,
    )


def _envelope_mean_gradient(state, variant, presentation):
    """Analytic group velocity averaged over the packet's mode weights.

    The transport velocity of a finite-width packet is the |a(k)|^2-weighted
    mean of the dispersion gradient; at sigma_k = 0.05 around |k0| = 0.2 the
    conical band makes this differ from the center-mode gradient by
    sigma^2/|k0|^2 (about 6 to 7 percent), an exact narrow-band correction
    rather than a numerical error.
    """
    d = presentation.dimension
    axes = tuple(range(d))
    hat = np.fft.fftn(state.amplitudes, axes=axes)
    weights = np.sum(np.abs(hat) ** 2, axis=-1)
    weights = weights / weights.sum()
    freqs = [2.0 * np.pi * np.fft.fftfreq(n) for n in state.lattice.sizes]
    mean = np.zeros(d)
    for index in np.argwhere(weights > 1e-10):
        theta = np.array([freqs[j][index[j]] for j in range(d)])
        k = presentation.k_of_theta(theta)
        mean += weights[tuple(index)] * np.asarray(
            weyl.dispersion(variant, k).group_velocity
        )
    return mean


def test_criterion_07_packet_kinematics():
    started = time.perf_counter()
    results = []
    ok = True

    descriptor = catalog.build_descriptor("bcc-a-plus")
    variant = weyl.variant_by_name("bcc-a-plus")
    lattice = evolution.LatticeSpec(
        presentation=descriptor.presentation, sizes=(96, 96, 96)
    )
    for k0 in (np.array([0.2, 0.0, 0.0]), np.array([0.2, 0.2, 0.2]) / np.sqrt(3.0)):
        spec = evolution.WavePacketSpec(
            center_k=tuple(k0), sigma_k=0.05, center_x=(48, 48, 48), branch="plus"
        )
        state = evolution.make_packet(spec, descriptor, lattice)
        steps = 24
        after = spectral_steps(state, descriptor, steps)
        measured = packet_velocity(state, after, steps)
        oracle = _envelope_mean_gradient(state, variant, descriptor.presentation)
        center = np.asarray(weyl.dispersion(variant, k0).group_velocity)
        rel = np.linalg.norm(measured - oracle) / np.linalg.norm(oracle)
        narrowband = np.linalg.norm(measured - center) / np.linalg.norm(center)
        ok = ok and rel < 0.02
        results.append(f"bcc:{rel:.4f}(center-mode {narrowband:.3f})")

    d1 = catalog.build_descriptor("weyl-1d")
    lattice1 = evolution.LatticeSpec(presentation=d1.presentation, sizes=(512,))
    for k0 in (0.4, 1.1):
        spec = evolution.WavePacketSpec(
            center_k=(k0,), sigma_k=0.05, center_x=(128,), branch="plus"
        )
        state = evolution.make_packet(spec, d1, lattice1)
        after = spectral_steps(state, d1, 50)
        measured = packet_velocity(state, after, 50)
        rel = abs(measured[0] - 1.0)
        ok = ok and rel < 0.01
        results.append(f"line:{rel:.5f}")

    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 60.0
    _report(7, "packet kinematics", ok, f"{' '.join(results)} time={elapsed:.1f}s")


def test_criterion_08_maxwell_suite():
    rng = np.random.default_rng(81)

    def spinors():
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        phi = rng.normal(size=2) + 1j * rng.normal(size=2)
        return psi / np.linalg.norm(psi), phi / np.linalg.norm(phi)

    worst_transverse = worst_rotation = 0.0
    for _ in range(10):
        psi, phi = spinors()
        k = rng.uniform(-1.0, 1.0, size=3)
        if np.linalg.norm(k) < 0.15:
            continue
        n = maxwell.helicity_half(k)
        for t in np.linspace(0.0, 10.0, 6):
            gt = maxwell.transverse_bilinear(psi, phi, n, t)
            worst_transverse = max(worst_transverse, abs(n @ gt))
            worst_rotation = max(
                worst_rotation,
                maxabs(maxwell.rotation_form(psi, phi, n, t) - gt),
            )

    psi, phi = spinors()
    k = np.array([0.6, 0.2, -0.4])
    dts = np.array([0.2, 0.1, 0.05, 0.025])
    residuals = [
        maxwell.mode_maxwell_residual(psi, phi, k, dt)["finite_difference"] for dt in dts
    ]
    fd_slope = np.polyfit(np.log(dts), np.log(residuals), 1)[0]

    worst_small_k = 0.0
    for _ in range(60):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        k = rng.uniform(0.02, 0.3) * direction
        worst_small_k = max(worst_small_k, maxwell.precession_deviation(k))
    ray = np.array([0.64, 0.6, 0.48])
    growth = [maxwell.precession_deviation(m * ray) for m in np.linspace(0.3, 3.0, 8)]
    monotone = all(b > a for a, b in zip(growth, growth[1:]))

    worst_identity = 0.0
    for _ in range(100):
        v = rng.normal(size=3)
        v *= rng.uniform(0.0, 2.0 * np.pi) / np.linalg.norm(v)
        worst_identity = max(
            worst_identity, maxwell.angular_momentum_identity_residual(v)
        )

    ok = (
        worst_transverse < 1e-14
        and worst_rotation < 1e-11
        and abs(fd_slope - 2.0) < 0.2
        and worst_small_k < 1e-2
        and monotone
        and worst_identity < ALGEBRA_TOL
    )
    _report(
        8,
        "maxwell suite",
        ok,
        f"transverse={worst_transverse:.1e} rotation={worst_rotation:.1e} "
        f"fd-slope={fd_slope:.3f} small-k={worst_small_k:.2e} "
        f"monotone={monotone} identity={worst_identity:.1e}",
    )


def test_criterion_09_fock_oracle():
    started = time.perf_counter()
    anti = fock.anticommutator_residual(n_modes=8, max_excitations=2)

    oracle8 = fock.FockOracle(n_pair_modes=8)
    oracle32 = fock.FockOracle(n_pair_modes=32)
    dev8, eps8 = fock.fock_commutator_deviation(
        oracle8, oracle8.filled_psi_state(1), (0, 0)
    )
    dev32, eps32 = fock.fock_commutator_deviation(
        oracle32, oracle32.filled_psi_state(1), (0, 0)
    )
    trend_ok = dev8 <= 4.0 * dev32 + 1e-12
    elapsed = time.perf_counter() - started
    _report(
        9,
        "fock oracle",
        anti == 0.0 and trend_ok and elapsed < 60.0,
        f"anticommutator={anti} dev(N=8)={dev8:.6f} dev(N=32)={dev32:.6f} "
        f"ratio={dev8 / dev32:.3f} time={elapsed:.1f}s",
    )


def test_criterion_10_tiling():
    worst_square = 0.0
    cases = [("weyl-1d", ((2,),), (16,)), ("weyl-2d", ((2, 0), (0, 2)), (8, 8))]
    rng = np.random.default_rng(101)
    folded_worst = 0.0
    for name, basis, sizes in cases:
        descriptor = catalog.build_descriptor(name)
        tiling = make_tiling(descriptor.presentation, basis)
        coarse = evolution.tile_descriptor(descriptor, tiling)
        lattice = evolution.LatticeSpec(
            presentation=descriptor.presentation, sizes=sizes
        )
        state = evolution.random_state(lattice, descriptor.internal_dim, rng)
        lhs = evolution.apply_tiling(evolution.step_direct(state, descriptor), tiling)
        rhs = evolution.step_direct(evolution.apply_tiling(state, tiling), coarse)
        worst_square = max(worst_square, maxabs(lhs.amplitudes - rhs.amplitudes))

        dim = descriptor.presentation.dimension
        for _ in range(8):
            theta_prime = rng.uniform(-np.pi, np.pi, size=dim)
            mat = assemble(coarse.rule, coarse.presentation, theta_prime)
            coarse_phases = np.sort(principal_phase(np.linalg.eigvals(mat)))
            fine_vals = []
            for fold in np.ndindex(*(2,) * dim):
                theta = theta_prime / 2.0 + np.pi * np.asarray(fold)
                fine = assemble(descriptor.rule, descriptor.presentation, theta)
                fine_vals.extend(np.linalg.eigvals(fine))
            fine_phases = np.sort(principal_phase(np.array(fine_vals)))
            folded_worst = max(
                folded_worst, float(np.max(np.abs(coarse_phases - fine_phases)))
            )
    _report(
        10,
        "tiling",
        worst_square < ALGEBRA_TOL and folded_worst < EIGEN_TOL,
        f"square={worst_square:.2e} folded={folded_worst:.2e}",
    )


def test_criterion_11_coupling_uniqueness_probe():
    started = time.perf_counter()
    report = dirac.uniqueness_probe(
        dirac.probe_setup(seed=111, n_k_verify=50), n_seeds=200, residual_tol=1e-6
    )
    elapsed = time.perf_counter() - started
    if report["off_family_hits"] > 0:
        warnings.warn(
            "coupling probe converged outside the mass family: "
            f"{report['off_family_hits']} hit(s); evidence only, not a failure"
        )
    probe_ran = report["trials"] == 200 and report["converged_unitary"] > 0
    detail = (
        f"converged={report['converged_unitary']} "
        f"decoupled={report['decoupled_endpoint']} flip={report['flip_endpoint']} "
        f"dressed={report['dressed_family']} off-family={report['off_family_hits']} "
        f"time={elapsed:.1f}s"
    )
    _report(11, "coupling uniqueness probe", probe_ran, detail)
