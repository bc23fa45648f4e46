"""Transition-matrix algebra: assembly, unitarity, covariance, extraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qca import catalog, weyl
from qca.automaton import (
    AutomatonDescriptor,
    IsotropyGroup,
    TransitionRule,
    assemble,
    check_covariance,
    check_unitarity_conditions,
    extract_transition_matrices,
    spectrum,
)
from qca.cayley import build_presentation
from qca.errors import SupportMismatchError
from qca.pauli import SIGMA_X, SIGMA_Y, SIGMA_Z, dagger, maxabs

from oracles import identity_descriptor


def _at_k(descriptor, k):
    """A(k) at Cartesian wave-vectors k of shape (..., d)."""
    pres = descriptor.presentation
    theta = np.asarray(k, dtype=float) @ pres.basis_matrix
    return assemble(descriptor.rule, pres, np.moveaxis(theta, -1, 0))


def test_assemble_weyl1d_quarter_turn():
    d = catalog.build_descriptor("weyl-1d")
    a = _at_k(d, [np.pi / 2.0])
    assert maxabs(a - (-1j * SIGMA_Z)) < 1e-15


def test_assemble_identity_at_zero():
    for name in ("weyl-1d", "weyl-2d", "bcc-a-plus"):
        d = catalog.build_descriptor(name)
        dim = d.presentation.dimension
        assert maxabs(_at_k(d, np.zeros(dim)) - np.eye(2)) < 1e-14


def test_assemble_matches_closed_form():
    # Independent evaluation of the three-dimensional closed form.
    d = catalog.build_descriptor("bcc-a-plus")
    k = np.array([0.3, -0.7, 1.1])
    c = np.cos(k / np.sqrt(3.0))
    s = np.sin(k / np.sqrt(3.0))
    u = c[0] * c[1] * c[2] + s[0] * s[1] * s[2]
    nt = np.array(
        [
            s[0] * c[1] * c[2] - c[0] * s[1] * s[2],
            -c[0] * s[1] * c[2] - s[0] * c[1] * s[2],
            c[0] * c[1] * s[2] - s[0] * s[1] * c[2],
        ]
    )
    expected = u * np.eye(2) - 1j * (nt[0] * SIGMA_X + nt[1] * SIGMA_Y + nt[2] * SIGMA_Z)
    assert maxabs(_at_k(d, k) - expected) < 1e-13


def test_unitarity_conditions_weyl_rules():
    for name in catalog.builtin_names():
        d = catalog.build_descriptor(name)
        report = check_unitarity_conditions(d.rule, d.presentation)
        assert report["max_residual"] < 1e-12, name


def test_unitarity_identity_rule():
    p = build_presentation("line")
    d = identity_descriptor(p)
    report = check_unitarity_conditions(d.rule, d.presentation)
    assert report["max_residual"] == 0.0


def test_unitarity_witness_single_block():
    p = build_presentation("line")
    block = np.array([[1.0, 0.3], [0.0, 0.5]], dtype=complex)
    rule = TransitionRule(entries={"h": block}, internal_dim=2)
    report = check_unitarity_conditions(rule, p)
    assert report["completeness_left"] == pytest.approx(
        maxabs(dagger(block) @ block - np.eye(2))
    )
    assert report["max_residual"] > 0.1


def test_unitarity_bounds_k_operator_residual():
    # A rule passing the matrix conditions at residual tau keeps the
    # assembled operator unitary within (number of terms) * tau.
    d = catalog.build_descriptor("weyl-2d")
    entries = {
        lab: blk + 1e-8 * np.arange(4).reshape(2, 2)
        for lab, blk in d.rule.entries.items()
    }
    rule = TransitionRule(entries=entries, internal_dim=2)
    perturbed = AutomatonDescriptor(presentation=d.presentation, rule=rule)
    tau = check_unitarity_conditions(rule, d.presentation)["max_residual"]
    terms = 1 + len({tuple(d.presentation.coordinates[a]) for a in entries})
    rng = np.random.default_rng(0)
    for _ in range(20):
        k = rng.uniform(-3, 3, size=2)
        a = _at_k(perturbed, k)
        assert maxabs(dagger(a) @ a - np.eye(2)) <= 4 * terms * tau


def test_covariance_bcc_binary_rotations():
    for name in ("bcc-a-plus", "bcc-a-minus", "bcc-b-plus", "bcc-b-minus"):
        d = catalog.build_descriptor(name)
        assert check_covariance(d)["max_residual"] < 1e-12, name


def test_covariance_square_swap_group():
    for name in ("weyl-2d", "weyl-2d-b"):
        d = catalog.build_descriptor(name)
        assert check_covariance(d)["max_residual"] < 1e-12, name


def test_covariance_trivial_group_any_rule():
    p = build_presentation("line")
    rng = np.random.default_rng(3)
    block = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rule = TransitionRule(entries={"h": block}, internal_dim=2)
    from qca.automaton import IsotropyGroup

    trivial = IsotropyGroup(
        elements=(({"h": "h", "h^-1": "h^-1"}, np.eye(2)),)
    )
    d = AutomatonDescriptor(presentation=p, rule=rule, isotropy=trivial)
    assert check_covariance(d)["max_residual"] == 0.0


def test_covariance_requires_isotropy():
    d = catalog.build_descriptor("weyl-1d")
    with pytest.raises(ValueError):
        check_covariance(d)


def _bcc_with_nan_unitary():
    """bcc-a-plus whose last isotropy element has a NaN representation."""
    d = catalog.build_descriptor("bcc-a-plus")
    perm, unitary = d.isotropy.elements[-1]
    group = IsotropyGroup(elements=d.isotropy.elements[:-1] + ((perm, unitary * np.nan),))
    return AutomatonDescriptor(presentation=d.presentation, rule=d.rule, isotropy=group)


def test_isotropy_check_rejects_nan_unitary():
    broken = _bcc_with_nan_unitary()
    with pytest.raises(ValueError, match="not unitary"):
        broken.isotropy.check_against(broken.presentation, broken.internal_dim)


def test_covariance_keeps_nan():
    # Python's max drops a NaN that follows a number; the residual must not.
    broken = _bcc_with_nan_unitary()
    assert np.isnan(check_covariance(broken)["max_residual"])
    report = catalog.validate_descriptor(broken)
    assert np.isnan(report["max_residual"])
    assert report["passed"] is False


def test_covariance_invariant_under_global_conjugation():
    d = catalog.build_descriptor("bcc-a-plus")
    base = check_covariance(d)["max_residual"]
    rng = np.random.default_rng(9)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    v, _ = np.linalg.qr(m)
    entries = {lab: v @ blk @ dagger(v) for lab, blk in d.rule.entries.items()}
    elements = tuple(
        (perm, v @ np.asarray(unit) @ dagger(v)) for perm, unit in d.isotropy.elements
    )
    conj = AutomatonDescriptor(
        presentation=d.presentation,
        rule=TransitionRule(entries=entries, internal_dim=2),
        isotropy=IsotropyGroup(elements=elements),
    )
    assert abs(check_covariance(conj)["max_residual"] - base) < 1e-12


def test_extraction_constant_identity():
    p = build_presentation("square_2d")
    rule = extract_transition_matrices(
        lambda k: np.broadcast_to(np.eye(2, dtype=complex), np.shape(k)[:-1] + (2, 2)),
        p,
        p.signed_labels() + ("e",),
    )
    assert set(rule.entries) == {"e"}
    assert maxabs(rule.entries["e"] - np.eye(2)) < 1e-14


def test_extraction_weyl1d_projectors():
    # cos(k) I - i sin(k) sigma_z splits into e^{-ik} diag(1,0) + e^{ik} diag(0,1).
    d = catalog.build_descriptor("weyl-1d")
    assert maxabs(d.rule.entries["h"] - np.diag([1.0, 0.0])) < 1e-13
    assert maxabs(d.rule.entries["h^-1"] - np.diag([0.0, 1.0])) < 1e-13


def test_extraction_bcc_rank_one_blocks():
    d = catalog.build_descriptor("bcc-a-plus")
    assert len(d.rule.entries) == 8
    for label, block in d.rule.entries.items():
        singular = np.linalg.svd(block, compute_uv=False)
        assert singular[1] < 1e-12, label


def test_extraction_round_trip_random_rule():
    p = build_presentation("square_2d")
    rng = np.random.default_rng(17)
    entries = {
        lab: rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        for lab in p.signed_labels() + ("e",)
    }
    rule = TransitionRule(entries=entries, internal_dim=3)
    d = AutomatonDescriptor(presentation=p, rule=rule)
    recovered = extract_transition_matrices(
        lambda k: _at_k(d, k), p, p.signed_labels() + ("e",)
    )
    for lab, blk in entries.items():
        assert maxabs(recovered.entries[lab] - blk) < 1e-12, lab


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(["line", "square_2d", "bcc_3d"]),
    with_identity=st.booleans(),
    s=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_extraction_recovers_random_rules(kind, with_identity, s, seed):
    p = build_presentation(kind)
    support = p.signed_labels() + (("e",) if with_identity else ())
    rng = np.random.default_rng(seed)
    entries = {lab: rng.normal(size=(s, s)) + 1j * rng.normal(size=(s, s)) for lab in support}
    d = AutomatonDescriptor(presentation=p, rule=TransitionRule(entries=entries, internal_dim=s))
    recovered = extract_transition_matrices(lambda k: _at_k(d, k), p, support)
    assert set(recovered.entries) == set(entries)
    for lab, blk in entries.items():
        assert maxabs(recovered.entries[lab] - blk) < 1e-12, lab


def test_extraction_support_mismatch():
    v = weyl.WeylVariant(3)
    p = build_presentation("bcc_3d")
    with pytest.raises(SupportMismatchError):
        extract_transition_matrices(
            lambda k: weyl.weyl_matrix(v, k), p, ("h1", "h1^-1")
        )


def test_extraction_rejects_nan_off_the_sampling_grid():
    # The Fourier grid samples theta = 0, 2pi/3, 4pi/3; only the random
    # reconstruction check meets the NaN band 0.1 < |theta| < 1.
    v = weyl.WeylVariant(1)
    p = build_presentation("line")

    def closed_form(k):
        w = weyl.weyl_matrix(v, k)
        band = (np.abs(k[..., 0]) > 0.1) & (np.abs(k[..., 0]) < 1.0)
        return np.where(band[..., None, None], np.nan, w)

    with pytest.raises(SupportMismatchError, match="nan"):
        extract_transition_matrices(closed_form, p, p.signed_labels())


def test_spectrum_weyl1d_linear():
    d = catalog.build_descriptor("weyl-1d")
    phases, vectors = spectrum(d, [0.6])
    assert np.allclose(phases, [-0.6, 0.6], atol=1e-14)
    assert maxabs(dagger(vectors) @ vectors - np.eye(2)) < 1e-12


def test_spectrum_at_zero():
    d = catalog.build_descriptor("bcc-a-plus")
    phases, _ = spectrum(d, np.zeros(3))
    assert np.allclose(phases, 0.0, atol=1e-14)


def test_spectrum_dirac_mass_point():
    d = catalog.build_descriptor("dirac-3d", mass=0.6)
    phases, _ = spectrum(d, np.zeros(3))
    w = np.arccos(0.8)
    assert np.allclose(np.sort(phases), [-w, -w, w, w], atol=1e-12)


def test_spectrum_rejects_nonunitary():
    p = build_presentation("line")
    rule = TransitionRule(entries={"h": np.eye(2, dtype=complex) * 1.1}, internal_dim=2)
    d = AutomatonDescriptor(presentation=p, rule=rule)
    with pytest.raises(ValueError, match="residual"):
        spectrum(d, [0.3])


def test_spectrum_under_k_reflection():
    # d = 1, 2: u is even in k, so the eigenphase multiset is odd under
    # k -> -k.  d = 3: the odd s_x s_y s_z term swaps the two sign branches
    # instead, so reflection maps each variant's spectrum onto its partner's.
    rng = np.random.default_rng(23)
    for name in ("weyl-1d", "weyl-2d", "weyl-2d-b"):
        d = catalog.build_descriptor(name)
        dim = d.presentation.dimension
        for _ in range(10):
            k = rng.uniform(-1.5, 1.5, size=dim)
            plus, _ = spectrum(d, k)
            minus, _ = spectrum(d, -k)
            assert np.allclose(np.sort(plus), np.sort(-minus), atol=1e-10)
    pairs = (("bcc-a-plus", "bcc-a-minus"), ("bcc-b-plus", "bcc-b-minus"))
    for name_a, name_b in pairs:
        da, db = catalog.build_descriptor(name_a), catalog.build_descriptor(name_b)
        for _ in range(10):
            k = rng.uniform(-1.5, 1.5, size=3)
            reflected, _ = spectrum(da, -k)
            partner, _ = spectrum(db, k)
            assert np.allclose(np.sort(reflected), np.sort(-partner), atol=1e-10)
