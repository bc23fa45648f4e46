"""Abelian Cayley-graph presentations of Z^d with Euclidean embedding.

A presentation carries the generating set S_+ with embedded displacement
vectors, the relators, a choice of d generators used as integer coordinates
(the free basis), and the wave-vector zone geometry.  The three canonical
presentations are the integer line, the 45-degree square lattice, and the
body-centered cubic lattice with four generators summing to zero.

Displacements are normalized so every component is +-1/sqrt(d); the
wave-vector operator of an automaton on these graphs is then a trigonometric
polynomial in the plain inner products k . h.
"""

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from math import gcd

import numpy as np

IDENTITY_LABEL = "e"

_EDGE_TOL = 1e-9


def inverse_label(label):
    """Canonical label of the inverse generator ("h1" <-> "h1^-1")."""
    if label == IDENTITY_LABEL:
        return IDENTITY_LABEL
    if label.endswith("^-1"):
        return label[:-3]
    return label + "^-1"


@dataclass(frozen=True)
class Generator:
    """One generator: label, embedded displacement, and its inverse's label."""

    label: str
    displacement: tuple
    inverse_label: str


@dataclass(frozen=True)
class BrillouinZone:
    """Convex wave-vector zone cut out by half-spaces k . n <= c.

    The boundary convention is half-open: a face whose outward normal has a
    positive first nonzero component is included, the opposite face is not;
    `contains` decides face points by it.  The zone need not be a primitive
    cell of the reciprocal lattice: the square_2d zone covers it twice.
    """

    kind: str
    bounds: tuple  # of (normal tuple, scalar) pairs

    def _face_included(self, normal):
        for component in normal:
            if component > 0:
                return True
            if component < 0:
                return False
        return True

    def contains(self, k):
        k = np.asarray(k, dtype=float)
        for normal, c in self.bounds:
            s = float(np.dot(k, normal))
            if self._face_included(normal):
                if s > c + _EDGE_TOL:
                    return False
            else:
                if s >= c - _EDGE_TOL:
                    return False
        return True


@dataclass
class CayleyPresentation:
    """Presentation <S | R> of Z^d together with its Euclidean embedding."""

    dimension: int
    generators_plus: tuple
    relators: tuple  # integer coefficient vectors over generators_plus
    free_basis: tuple  # labels of d generators used as integer coordinates
    bz: BrillouinZone
    kind: str = "custom"

    @cached_property
    def basis_matrix(self):
        """d x d matrix whose columns are the free-basis displacements."""
        by_label = {g.label: g.displacement for g in self.generators_plus}
        return np.array([by_label[lab] for lab in self.free_basis], dtype=float).T

    @cached_property
    def dual_matrix(self):
        """Columns b_j with b_j . h_i = delta_ij; maps group-coordinate
        angles theta to Cartesian wave-vectors k = dual @ theta."""
        return np.linalg.inv(self.basis_matrix.T)

    @cached_property
    def coordinates(self):
        """Integer free-basis coordinates for every signed label and 'e'."""
        coords = {IDENTITY_LABEL: tuple([0] * self.dimension)}
        inv_basis = np.linalg.inv(self.basis_matrix)
        for g in self.generators_plus:
            x = inv_basis @ np.asarray(g.displacement)
            xi = np.rint(x)
            if np.max(np.abs(x - xi)) > 1e-9:
                raise ValueError(
                    f"generator {g.label} is not an integer combination of the free basis"
                )
            coords[g.label] = tuple(int(v) for v in xi)
            coords[g.inverse_label] = tuple(-int(v) for v in xi)
        return coords

    def signed_labels(self):
        """All generator labels and their inverses (the set S, without 'e')."""
        labels = []
        for g in self.generators_plus:
            labels.append(g.label)
            labels.append(g.inverse_label)
        return tuple(labels)

    def theta_of(self, k):
        """Group-coordinate angles theta_j = k . h_j."""
        return self.basis_matrix.T @ np.asarray(k, dtype=float)

    def k_of_theta(self, theta):
        """Cartesian wave-vectors dual @ theta for angles of shape (..., d)."""
        theta = np.asarray(theta, dtype=float)
        return np.matmul(self.dual_matrix, theta[..., None])[..., 0]

    def check_invariants(self):
        """Raise if the relators, basis, or zone violate their contracts."""
        if len(self.free_basis) != self.dimension:
            raise ValueError("free basis must contain exactly d generators")
        if abs(np.linalg.det(self.basis_matrix)) < 1e-12:
            raise ValueError("free-basis displacements are linearly dependent")
        disp = np.array([g.displacement for g in self.generators_plus])
        for coeffs in self.relators:
            if float(np.max(np.abs(np.asarray(coeffs) @ disp))) > 1e-12:
                raise ValueError(f"relator {coeffs} does not embed to zero")
        labels = [g.label for g in self.generators_plus]
        if len(set(labels)) != len(labels):
            raise ValueError("generator labels are not unique")
        self.coordinates  # validates integer combinations
        if not self.bz.contains(np.zeros(self.dimension)):
            raise ValueError("zone does not contain k = 0")


def _zone_line():
    return BrillouinZone("interval_1d", (((1.0,), np.pi), ((-1.0,), np.pi)))


def _zone_square():
    c = np.sqrt(2.0) * np.pi
    bounds = (
        ((1.0, 0.0), c),
        ((-1.0, 0.0), c),
        ((0.0, 1.0), c),
        ((0.0, -1.0), c),
    )
    return BrillouinZone("square_2d", bounds)


def _zone_bcc():
    c = np.sqrt(3.0) * np.pi
    bounds = []
    for i, j in ((0, 1), (0, 2), (1, 2)):
        for si, sj in product((1.0, -1.0), repeat=2):
            normal = [0.0, 0.0, 0.0]
            normal[i] = si
            normal[j] = sj
            bounds.append((tuple(normal), c))
    return BrillouinZone("rhombic_dodecahedron_3d", tuple(bounds))


def voronoi_zone(basis, kind="voronoi"):
    """Wigner-Seitz cell of the lattice spanned by the given basis columns.

    Candidate facet normals are short lattice vectors; a plane k.v = |v|^2/2
    is kept only when its midpoint v/2 is not cut off by another candidate.
    """
    basis = np.asarray(basis, dtype=float)
    d = basis.shape[0]
    vectors = []
    for coeffs in product(range(-2, 3), repeat=d):
        if any(coeffs):
            vectors.append(basis @ np.asarray(coeffs, dtype=float))
    bounds = []
    for v in vectors:
        mid = v / 2.0
        keep = True
        for w in vectors:
            if w is v:
                continue
            if np.dot(mid, w) > np.dot(w, w) / 2.0 + 1e-12:
                keep = False
                break
        if keep:
            bounds.append((tuple(v), float(np.dot(v, v) / 2.0)))
    return BrillouinZone(kind, tuple(bounds))


def build_presentation(kind):
    """Canonical presentation: 'line', 'square_2d' or 'bcc_3d'."""
    if kind == "line":
        gens = (Generator("h", (1.0,), "h^-1"),)
        pres = CayleyPresentation(1, gens, (), ("h",), _zone_line(), kind="line")
    elif kind == "square_2d":
        r = 1.0 / np.sqrt(2.0)
        gens = (
            Generator("h1", (r, r), "h1^-1"),
            Generator("h2", (r, -r), "h2^-1"),
        )
        pres = CayleyPresentation(2, gens, (), ("h1", "h2"), _zone_square(), kind="square_2d")
    elif kind == "bcc_3d":
        r = 1.0 / np.sqrt(3.0)
        gens = (
            Generator("h1", (r, r, r), "h1^-1"),
            Generator("h2", (r, -r, -r), "h2^-1"),
            Generator("h3", (-r, r, -r), "h3^-1"),
            Generator("h4", (-r, -r, r), "h4^-1"),
        )
        pres = CayleyPresentation(
            3, gens, ((1, 1, 1, 1),), ("h1", "h2", "h3"), _zone_bcc(), kind="bcc_3d"
        )
    else:
        raise ValueError(f"unknown presentation kind: {kind!r}")
    pres.check_invariants()
    return pres


@dataclass(frozen=True)
class TilingMap:
    """Regrouping of a lattice onto a finite-index sublattice.

    subgroup_basis holds the sublattice basis vectors as matrix columns in
    the parent's free-basis coordinates; coset_reps are the canonical
    (lexicographically smallest non-negative) representatives.
    """

    parent: CayleyPresentation = field(compare=False)
    subgroup_basis: tuple
    coset_reps: tuple
    index: int
    _adj_det: tuple = field(compare=False, repr=False)  # (adj(M), det(M)) from make_tiling

    @property
    def basis_matrix(self):
        return np.array(self.subgroup_basis, dtype=int).T  # columns

    @cached_property
    def _coset_of_key(self):
        return {self.coset_key(rep): i for i, rep in enumerate(self.coset_reps)}

    def coset_key(self, x):
        """Exact integer coset invariant: adj(M) @ x mod |det(M)|."""
        return tuple((self._adj_det[0] @ np.asarray(x, dtype=int)) % self.index)

    def coset_index(self, x):
        return self._coset_of_key[self.coset_key(x)]

    def decompose(self, x):
        """Split x = rep + M @ g' and return (coset index, sublattice coords g')."""
        i = self.coset_index(x)
        delta = np.asarray(x, dtype=int) - np.asarray(self.coset_reps[i], dtype=int)
        # x and the rep share a coset key, so adj(M) @ delta = det(M) g' exactly.
        adj, det = self._adj_det
        return i, (adj @ delta) // det

    @cached_property
    def coarse_presentation(self):
        """Presentation of the sublattice with the regrouped internal space.

        Generators are the standard sublattice basis directions plus any other
        coarse displacements the regrouped rule can reach; the zone is the
        Wigner-Seitz cell of the coarse reciprocal lattice.
        """
        parent = self.parent
        d = parent.dimension
        basis = self.basis_matrix  # columns, parent free coords
        embed = parent.basis_matrix @ basis  # columns, Cartesian

        # The unit vectors (the free basis) and every reachable shift, each in the
        # sign whose first nonzero entry is positive: max(g, -g) under tuple order.
        units = [tuple(int(i == j) for i in range(d)) for j in range(d)]
        needed = set(units)
        for rep in self.coset_reps:
            for label in list(parent.signed_labels()) + [IDENTITY_LABEL]:
                shift = np.subtract(rep, parent.coordinates[label])
                _, g = self.decompose(shift)
                if any(g):
                    g = tuple(int(v) for v in g)
                    needed.add(max(g, tuple(-v for v in g)))
        positives = sorted(needed)

        labels = [f"t{i + 1}" for i in range(len(positives))]
        generator_objs = tuple(
            Generator(label, tuple(float(v) for v in embed @ np.asarray(coords, dtype=float)),
                      inverse_label(label))
            for label, coords in zip(labels, positives)
        )
        zone = voronoi_zone(2.0 * np.pi * np.linalg.inv(embed.T), kind="voronoi")
        pres = CayleyPresentation(
            dimension=d,
            generators_plus=generator_objs,
            relators=(),
            free_basis=tuple(labels[positives.index(unit)] for unit in units),
            bz=zone,
            kind="tiled",
        )
        pres.check_invariants()
        return pres


def make_tiling(presentation, subgroup_basis):
    """Enumerate the cosets of the sublattice spanned by subgroup_basis.

    Basis vectors are the columns of the matrix formed from the given
    sequence of d integer vectors.  Each representative is the
    lexicographically smallest non-negative one of its coset, and so has
    x_j < o_j, the order of e_j modulo the sublattice (subtracting o_j e_j
    stays in the coset and lowers x); only that box is scanned.
    """
    vectors = tuple(tuple(int(v) for v in vec) for vec in np.atleast_2d(subgroup_basis))
    m = np.array(vectors, dtype=int).T
    if m.shape != (presentation.dimension, presentation.dimension):
        raise ValueError("subgroup basis must contain d integer d-vectors")
    adj, det = _adjugate(m)
    r = abs(det)
    if r > 4096:
        raise ValueError(f"sublattice index {r} too large to enumerate")
    seen = {}
    orders = [r // gcd(r, *map(int, adj[:, j])) for j in range(presentation.dimension)]
    for x in product(*map(range, orders)):
        seen.setdefault(tuple((adj @ np.asarray(x, dtype=int)) % r), x)
        if len(seen) == r:
            break
    reps = tuple(sorted(seen.values()))
    return TilingMap(parent=presentation, subgroup_basis=vectors, coset_reps=reps, index=r,
                     _adj_det=(adj, det))


def _adjugate(m):
    """(adj(M), det(M)) of an integer matrix; raises if M is singular."""
    det = int(round(np.linalg.det(m)))
    if det == 0:
        raise ValueError("subgroup basis is singular")
    return np.rint(np.linalg.inv(m) * det).astype(int), det
