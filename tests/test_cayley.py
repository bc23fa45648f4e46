"""Presentations, zones and tiling."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qca.cayley import build_presentation, make_tiling


def test_line_presentation():
    p = build_presentation("line")
    assert p.dimension == 1
    assert len(p.generators_plus) == 1
    assert p.relators == ()
    assert p.generators_plus[0].displacement == (1.0,)
    assert p.bz.contains([np.pi])
    assert not p.bz.contains([-np.pi])
    assert not p.bz.contains([3.2])


def test_square_generators_orthonormal():
    p = build_presentation("square_2d")
    h1 = np.asarray(p.generators_plus[0].displacement)
    h2 = np.asarray(p.generators_plus[1].displacement)
    assert abs(h1 @ h2) < 1e-15
    assert abs(h1 @ h1 - 1.0) < 1e-15
    assert abs(h2 @ h2 - 1.0) < 1e-15


def test_bcc_displacements_sum_to_zero():
    p = build_presentation("bcc_3d")
    total = sum(np.asarray(g.displacement) for g in p.generators_plus)
    assert np.max(np.abs(total)) < 1e-15
    assert p.coordinates["h4"] == (-1, -1, -1)


def test_unknown_kind_raises():
    with pytest.raises(ValueError):
        build_presentation("hexagonal")


def test_zone_volume_matches_reciprocal_cell_1d_3d():
    # Zone volume must equal (2 pi)^d / primitive-cell volume.
    from scipy.spatial import ConvexHull, HalfspaceIntersection

    for kind in ("line", "bcc_3d"):
        p = build_presentation(kind)
        if p.dimension == 1:
            volume = 2.0 * np.pi
        else:
            half = np.array(
                [list(normal) + [-c] for normal, c in p.bz.bounds]
            )
            hs = HalfspaceIntersection(half, np.zeros(p.dimension))
            volume = ConvexHull(hs.intersections).volume
        expected = (2.0 * np.pi) ** p.dimension / abs(np.linalg.det(p.basis_matrix))
        assert abs(volume - expected) < 1e-8 * expected


def test_zone_volume_2d_square_is_doubled():
    # The axis-aligned square zone covers the reciprocal cell twice; the
    # doubling factor is pinned here so a silent geometry change is caught.
    p = build_presentation("square_2d")
    side = 2.0 * np.sqrt(2.0) * np.pi
    cell = (2.0 * np.pi) ** 2 / abs(np.linalg.det(p.basis_matrix))
    assert abs(side * side - 2.0 * cell) < 1e-9


@given(st.sampled_from(["line", "square_2d", "bcc_3d"]), st.integers(0, 11),
       st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
def test_zone_contains_face_points_on_the_half_open_side(kind, face, tangent):
    # A point inside a face of the zone is in the zone exactly when the
    # face's outward normal has a positive first nonzero component.
    p = build_presentation(kind)
    normal, c = p.bz.bounds[face % len(p.bz.bounds)]
    n = np.asarray(normal, dtype=float)
    t = np.asarray(tangent[:p.dimension])
    t -= (t @ n) / (n @ n) * n
    k = c * n / (n @ n) + 0.1 * c / np.linalg.norm(n) * t
    assert p.bz.contains(k) == (next(v for v in normal if v != 0) > 0)


def test_zone_contains_origin_strictly():
    for kind in ("line", "square_2d", "bcc_3d"):
        p = build_presentation(kind)
        assert p.bz.contains(np.zeros(p.dimension))
        for normal, c in p.bz.bounds:
            assert c > 0.1


def test_tiling_identity_basis():
    p = build_presentation("line")
    t = make_tiling(p, ((1,),))
    assert t.index == 1
    assert t.coset_reps == ((0,),)


def test_tiling_line_even_odd():
    p = build_presentation("line")
    t = make_tiling(p, ((2,),))
    assert t.index == 2
    assert t.coset_reps == ((0,), (1,))


def test_tiling_square_index_four():
    p = build_presentation("square_2d")
    t = make_tiling(p, ((2, 0), (0, 2)))
    assert t.index == 4
    assert set(t.coset_reps) == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_tiling_reps_in_distinct_cosets():
    p = build_presentation("square_2d")
    t = make_tiling(p, ((2, 1), (0, 3)))
    assert t.index == 6
    keys = {t.coset_key(rep) for rep in t.coset_reps}
    assert len(keys) == t.index


@pytest.mark.parametrize("kind, basis", [
    ("square_2d", ((2, 1), (0, 3))),
    ("bcc_3d", ((1, 1, 0), (0, 2, 0), (0, 0, 3))),
])
def test_tiling_decomposes_every_point_exactly(kind, basis):
    p = build_presentation(kind)
    t = make_tiling(p, basis)
    m = t.basis_matrix
    for i, rep in enumerate(t.coset_reps):
        assert t.coset_index(rep) == i
    for x in itertools.product(range(-4, 5), repeat=p.dimension):
        i, g = t.decompose(x)
        assert g.dtype.kind == "i"
        assert tuple(np.asarray(t.coset_reps[i]) + m @ g) == x


def _lex_least_reps(basis):
    """The lexicographically least representative of every coset, by scanning
    all of [0, r)^d: x and y share a coset when r M^-1 (x - y) = 0 mod r."""
    m = np.array(basis, dtype=float).T
    r = abs(round(np.linalg.det(m)))
    xs = np.array(list(itertools.product(range(r), repeat=len(m))))
    keys = np.rint(np.linalg.solve(m, xs.T).T * r).astype(int) % r
    _, first = np.unique(keys, axis=0, return_index=True)
    return tuple(sorted(tuple(int(v) for v in xs[i]) for i in first))


@pytest.mark.parametrize("kind, basis", [
    ("line", ((5,),)),
    ("square_2d", ((2, 1), (0, 3))),
    ("square_2d", ((3, 1), (1, 2))),
    ("square_2d", ((0, 2), (3, 0))),
    ("bcc_3d", ((1, 1, 0), (0, 2, 0), (0, 0, 3))),
    ("bcc_3d", ((2, 1, 0), (1, 3, 1), (0, 1, 2))),
    ("bcc_3d", ((0, 1, 0), (1, 0, 0), (0, 0, 3))),
    ("bcc_3d", ((4, 0, 0), (0, 4, 0), (0, 0, 4))),
    ("bcc_3d", ((2, 0, 1), (0, 3, 0), (1, 1, 4))),
])
def test_tiling_reps_match_full_box_scan(kind, basis):
    # make_tiling scans only x_j < o_j, the order of e_j modulo the sublattice.
    assert make_tiling(build_presentation(kind), basis).coset_reps == _lex_least_reps(basis)


def test_tiling_at_the_index_cap():
    t = make_tiling(build_presentation("bcc_3d"), ((16, 0, 0), (0, 16, 0), (0, 0, 16)))
    assert t.index == 4096
    assert t.coset_reps == tuple(itertools.product(range(16), repeat=3))


def test_tiling_singular_basis_raises():
    p = build_presentation("square_2d")
    with pytest.raises(ValueError):
        make_tiling(p, ((1, 1), (2, 2)))
