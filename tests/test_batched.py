"""Wave-vector batches: every row of a batched call is the single-k result."""

import itertools

import numpy as np
import pytest

from qca import catalog, dirac, weyl
from qca.automaton import assemble, spectrum
from qca.cayley import build_presentation
from qca.pauli import dagger

from oracles import residual_and_jacobian_einsum, same_bits

DIRAC_VARIANTS = tuple(catalog.builtin_variant(f"dirac-{d}d") for d in (1, 2, 3))
WEYL_CASES = tuple(weyl.named_variants().values()) + (weyl.WeylVariant(2, theta=0.3),)
# (variant, mass): mass None is the chiral walk itself.
CASES = [(v, None) for v in WEYL_CASES] + [(v, 0.1) for v in DIRAC_VARIANTS]


def _case_id(case):
    variant, mass = case
    return variant.name if mass is None else f"dirac-{variant.dimension}d(m={mass})"


def _zone_points(variant, count=24, seed=41):
    """k = 0, the grid points with -pi group angles, and random k; shape (N, d).

    For the canonical chiral walks k = 0 and the corner with every angle at
    -pi are band-touching (u = +-1), where the velocity is set to 0.
    """
    pres = build_presentation(variant.presentation_kind)
    d = variant.dimension
    corners = np.array(list(itertools.product((-np.pi, 0.0), repeat=d)))
    random = np.random.default_rng(seed).uniform(-np.pi, np.pi, size=(count, d))
    return np.array([pres.k_of_theta(t) for t in np.concatenate([corners, random])])


def _sampler(variant, mass):
    if mass is None:
        return lambda k: weyl.dispersion(variant, k)
    dd = dirac.DiracDescriptor(weyl=variant, mass=mass)
    return lambda k: dirac.dirac_dispersion(dd, k)


@pytest.mark.parametrize("variant", WEYL_CASES, ids=lambda v: v.name)
def test_batched_closed_form_rows_are_single_k(variant):
    ks = _zone_points(variant)
    batch = weyl.closed_form(variant, ks)
    mats = weyl.weyl_matrix(variant, ks)
    for i, k in enumerate(ks):
        for got, want in zip(batch, weyl.closed_form(variant, k)):
            assert same_bits(got[i], want), (variant.name, i)
        assert same_bits(mats[i], weyl.weyl_matrix(variant, k)), (variant.name, i)


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_batched_dispersion_rows_are_single_k(case):
    variant, mass = case
    sample = _sampler(*case)
    ks = _zone_points(variant)
    batch = sample(ks)
    d = variant.dimension
    assert batch.omega.shape == (len(ks), 2)
    assert batch.group_velocity.shape == (len(ks), d)
    for i, k in enumerate(ks):
        one = sample(k)
        for field in ("omega", "group_velocity"):
            assert same_bits(getattr(batch, field)[i], getattr(one, field)), (field, i)


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_batched_eigenphases_match_spectrum(case):
    variant, mass = case
    if mass is None:
        descriptor = catalog.weyl_descriptor(variant)
    else:
        descriptor = catalog.dirac_descriptor(dirac.DiracDescriptor(weyl=variant, mass=mass))
    ks = _zone_points(variant)
    omega = _sampler(*case)(ks).omega
    s = descriptor.internal_dim
    worst = 0.0
    for k, (plus, minus) in zip(ks, omega):
        phases, _ = spectrum(descriptor, k)
        want = np.sort(np.repeat([minus, plus], s // 2))
        worst = max(worst, float(np.max(np.abs(np.angle(np.exp(1j * (phases - want)))))))
    assert worst < 1e-12


@pytest.mark.parametrize("name", ["weyl-1d", "weyl-2d", "bcc-a-plus", "dirac-3d"])
def test_assemble_grid_matches_scattered_points(name):
    descriptor = catalog.build_descriptor(name)
    pres = descriptor.presentation
    sizes = {1: (7,), 2: (5, 6), 3: (4, 5, 3)}[pres.dimension]
    axes = [2.0 * np.pi * np.fft.fftfreq(n) for n in sizes]
    grid = assemble(descriptor.rule, pres, np.ix_(*axes))
    assert grid.shape == sizes + (descriptor.internal_dim,) * 2
    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, pres.dimension)
    scattered = assemble(descriptor.rule, pres, points.T)
    assert np.max(np.abs(scattered - grid.reshape(scattered.shape))) <= 1e-15
    single = assemble(descriptor.rule, pres, points[5])
    assert single.shape == (descriptor.internal_dim,) * 2
    assert np.max(np.abs(single - scattered[5])) <= 1e-15


@pytest.mark.parametrize("adjoint_first", [True, False])
def test_residual_vector_from_precomputed_stack(adjoint_first):
    # The full residual of the oracle, from the stack of W at every wave-vector,
    # against a loop over the wave-vectors; the probe's 48-entry residual keeps its cost.
    variant = weyl.WeylVariant(3)
    rng = np.random.default_rng(5)
    ks = rng.uniform(-1.5, 1.5, size=(12, 3))
    params_real = rng.normal(size=24)
    got, _ = residual_and_jacobian_einsum(params_real, weyl.weyl_matrix(variant, ks), adjoint_first)
    compressed, _ = dirac._residual_and_jacobian(
        params_real[None], dirac._residual_basis(variant, ks), np.array([adjoint_first]))
    assert abs(compressed[0] @ compressed[0] - got @ got) <= 1e-13 * (got @ got)

    z = params_real[0::2] + 1j * params_real[1::2]
    p, q, r, t = z[:4]
    x_block, y_block = z[4:8].reshape(2, 2), z[8:12].reshape(2, 2)
    want = []
    for k in ks:
        w = weyl.weyl_matrix(variant, k)
        first = dagger(w) if adjoint_first else w
        d = np.block([[p * first, q * x_block], [r * y_block, t * w]])
        res = dagger(d) @ d - np.eye(4)
        want += [res.real.ravel(), res.imag.ravel()]
    assert same_bits(got, np.concatenate(want))


@pytest.mark.parametrize("variant", DIRAC_VARIANTS, ids=lambda v: f"d={v.dimension}")
@pytest.mark.parametrize("mass", [0.0, 0.3, 1.0])
def test_dirac_matrix_rows_are_block_built(variant, mass):
    dd = dirac.DiracDescriptor(weyl=variant, mass=mass)
    ks = _zone_points(variant)
    got = dirac.dirac_matrix(dd, ks)
    assert got.shape == (len(ks), 4, 4)
    im = 1j * mass * np.eye(2, dtype=complex)
    for i, k in enumerate(ks):
        w = weyl.weyl_matrix(variant, k)
        want = np.block([[dd.n * dagger(w), im], [im, dd.n * w]])
        assert same_bits(got[i], want), i
        assert same_bits(dirac.dirac_matrix(dd, k), want), i


@pytest.mark.parametrize("adjoint_first", [True, False])
def test_coupling_residual_is_worst_per_k_residual(adjoint_first):
    variant = weyl.WeylVariant(3)
    rng = np.random.default_rng(9)
    ks = rng.uniform(-1.5, 1.5, size=(20, 3))
    z = rng.normal(size=12) + 1j * rng.normal(size=12)
    p, q, r, t = z[:4]
    x_block, y_block = z[4:8].reshape(2, 2), z[8:12].reshape(2, 2)
    got = dirac.coupling_unitarity_residual(
        p, q, r, t, x_block, y_block, variant, ks, adjoint_first=adjoint_first
    )
    per_k = []
    for k in ks:
        w = weyl.weyl_matrix(variant, k)
        first = dagger(w) if adjoint_first else w
        d = np.block([[p * first, q * x_block], [r * y_block, t * w]])
        per_k.append(np.max(np.abs(dagger(d) @ d - np.eye(4))))
    assert got == max(per_k)
