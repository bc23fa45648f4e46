"""Generic lattice automaton: transition matrices and their algebra.

A rule assigns an s x s complex block to each signed generator label (plus
optionally the identity 'e' for self-interaction).  The wave-vector operator
is the trigonometric polynomial A(k) = sum_h exp(-i k.h) A_h; it is unitary
for every k exactly when the transition matrices satisfy the completeness
and off-diagonal conditions checked below.
"""

from dataclasses import dataclass
from itertools import product

import numpy as np
# numpy loads these lazily; loading them with the package keeps that cost
# out of the commands that use them.
import numpy.fft  # noqa: F401
import numpy.random  # noqa: F401

from .cayley import IDENTITY_LABEL, CayleyPresentation
from .errors import SupportMismatchError
from .pauli import dagger, maxabs, principal_phase

# extract_transition_matrices: largest residual allowed, smallest block kept.
_EXTRACT_TOL = 1e-9
_DROP_TOL = 1e-13
_UNITARITY_TOL = 1e-9  # spectrum: largest ||A^dagger A - I|| accepted


@dataclass
class TransitionRule:
    """Map from signed generator labels (or 'e') to s x s complex blocks."""

    entries: dict
    internal_dim: int

    def matrix(self, label):
        if label in self.entries:
            return self.entries[label]
        return np.zeros((self.internal_dim, self.internal_dim), dtype=complex)

    def check_against(self, presentation):
        allowed = set(presentation.signed_labels()) | {IDENTITY_LABEL}
        for label, block in self.entries.items():
            if label not in allowed:
                raise ValueError(f"label {label!r} not in the presentation's S or 'e'")
            if block.shape != (self.internal_dim, self.internal_dim):
                raise ValueError(f"block for {label!r} has shape {block.shape}")
        if all(maxabs(b) == 0.0 for b in self.entries.values()):
            raise ValueError("rule has no nonzero transition matrix")


@dataclass
class IsotropyGroup:
    """Graph-automorphism group elements with their spinor representation.

    Each element is (permutation of signed labels, unitary s x s matrix);
    the permutation must fix 'e' and commute with inversion.
    """

    elements: tuple

    def check_against(self, presentation, internal_dim):
        labels = set(presentation.signed_labels())
        plus = [g.label for g in presentation.generators_plus]
        perms = []
        for perm, unitary in self.elements:
            if set(perm.keys()) != labels or set(perm.values()) != labels:
                raise ValueError("permutation must be a bijection of S")
            u = np.asarray(unitary)
            if u.shape != (internal_dim, internal_dim):
                raise ValueError(f"representation matrix has shape {u.shape}, not s x s")
            if not maxabs(u @ dagger(u) - np.eye(u.shape[0])) <= 1e-12:
                raise ValueError("representation matrix is not unitary")
            perms.append(perm)
        # closure and transitivity on S_+
        frozen = {tuple(sorted(p.items())) for p in perms}
        for p, q in product(perms, repeat=2):
            comp = {k: p[q[k]] for k in q}
            if tuple(sorted(comp.items())) not in frozen:
                raise ValueError("permutations are not closed under composition")
        reachable = {perm[plus[0]] for perm, _ in self.elements}
        if not set(plus) <= reachable:
            raise ValueError("group is not transitive on S_+")


@dataclass
class AutomatonDescriptor:
    """A presentation, a transition rule, and an optional isotropy group."""

    presentation: CayleyPresentation
    rule: TransitionRule
    isotropy: IsotropyGroup = None
    name: str = ""

    def __post_init__(self):
        self.rule.check_against(self.presentation)

    @property
    def internal_dim(self):
        return self.rule.internal_dim


def assemble(rule, presentation, theta, coords=None):
    """A(theta) = sum_h exp(-i theta.m_h) A_h at group-coordinate angles theta.

    theta is a length-d sequence of mutually broadcastable angle arrays
    (theta_j = k . h_j): scalars for one point, open-mesh axes for a product
    grid, equal-length vectors for scattered points; or, with `coords`, one
    table of angles per axis, gathered at the integer coords[j].  Each
    label's phase is a product of per-axis factors and the sum over labels
    is one matrix product; returns the broadcast shape followed by (s, s).
    """
    if len(theta) != presentation.dimension:
        raise ValueError(f"expected {presentation.dimension} angle arrays, got {len(theta)}")
    points = theta if coords is None else coords
    shape = np.broadcast_shapes(*(np.shape(p) for p in points))
    # One point is a batch of one: numpy's scalar arithmetic rounds complex
    # products differently from its array loops, which the grid uses.
    theta = [np.atleast_1d(np.asarray(t, dtype=float)) for t in theta]
    grid = shape or (1,)
    s = rule.internal_dim
    labels = list(rule.entries)
    phases = np.empty((len(labels),) + grid, dtype=complex)
    # Labels share per-axis factors (h1 and h4^-1 both carry m_1 = 1): one exp each.
    axis_factors = {}
    for i, label in enumerate(labels):
        factor = np.ones((1,) * len(grid), dtype=complex)
        for j, (m, t) in enumerate(zip(presentation.coordinates[label], theta)):
            if m:
                if (j, m) not in axis_factors:
                    table = np.exp(-1j * m * t)
                    axis_factors[j, m] = table if coords is None else np.take(table, coords[j])
                factor = factor * axis_factors[j, m]
        phases[i] = factor
    blocks = np.array([rule.entries[label] for label in labels])
    out = phases.reshape(len(labels), -1).T @ blocks.reshape(len(labels), s * s)
    return out.reshape(shape + (s, s))


def check_unitarity_conditions(rule, presentation):
    """Residuals of sum A_h^+ A_h = sum A_h A_h^+ = I and, for every nonzero
    group element reachable as h^-1 h', of the two interference sums.

    Returns the dict that `qca validate` emits under "unitarity"; offdiagonal
    maps "m1,...,md" to [left, right], and max_residual keeps a NaN.
    """
    labels = list(rule.entries.keys())
    coords = {lab: np.asarray(presentation.coordinates[lab], dtype=int) for lab in labels}
    s = rule.internal_dim
    left = sum(dagger(rule.entries[lab]) @ rule.entries[lab] for lab in labels)
    right = sum(rule.entries[lab] @ dagger(rule.entries[lab]) for lab in labels)
    eye = np.eye(s)
    acc_left, acc_right = {}, {}
    for ha, hb in product(labels, repeat=2):
        diff = tuple(coords[hb] - coords[ha])
        if all(v == 0 for v in diff):
            continue
        zero = np.zeros((s, s), dtype=complex)
        acc_left[diff] = acc_left.get(diff, zero) + dagger(rule.entries[ha]) @ rule.entries[hb]
        acc_right[diff] = acc_right.get(diff, zero) + rule.entries[hb] @ dagger(rule.entries[ha])
    completeness = [maxabs(left - eye), maxabs(right - eye)]
    offdiagonal = {",".join(str(v) for v in diff): [maxabs(acc_left[diff]), maxabs(acc_right[diff])]
                   for diff in acc_left}
    return {
        "completeness_left": completeness[0],
        "completeness_right": completeness[1],
        "offdiagonal": offdiagonal,
        "max_residual": maxabs(completeness + [v for pair in offdiagonal.values() for v in pair]),
    }


def check_covariance(descriptor):
    """Residual of U_l A_h U_l^+ = A_{l(h)} over the whole isotropy group.

    Returns the dict that `qca validate` emits under "covariance":
    per_element maps "index:label" to its residual.
    """
    if descriptor.isotropy is None:
        raise ValueError("descriptor carries no isotropy group")
    rule = descriptor.rule
    labels = descriptor.presentation.signed_labels()
    per = {}
    for idx, (perm, unitary) in enumerate(descriptor.isotropy.elements):
        u = np.asarray(unitary, dtype=complex)
        for label in labels:
            lhs = u @ rule.matrix(label) @ dagger(u)
            per[f"{idx}:{label}"] = maxabs(lhs - rule.matrix(perm[label]))
    return {"max_residual": maxabs(list(per.values())), "per_element": per}


def extract_transition_matrices(f, presentation, support):
    """Recover the transition matrices of a closed-form k -> A(k).

    f maps wave-vectors of shape (..., d) to operators of shape (..., s, s).
    It is sampled once on the minimal regular grid in group coordinates, and
    one inverse FFT over the grid axes inverts the Fourier series exactly:
    coefficient m sits at index m mod n.  Entries outside the stated support
    and a random-k reconstruction check both feed the residual.
    """
    d = presentation.dimension
    # Ascending coordinate tuples fix the order of the rule's labels.
    support = sorted({presentation.coordinates[lab]: lab for lab in support}.items())
    grid = tuple(2 * np.abs([m for m, _ in support]).max(axis=0) + 1)
    axes = [2.0 * np.pi * np.arange(n) / n for n in grid]
    theta = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    samples = np.asarray(f(presentation.k_of_theta(theta)), dtype=complex)
    coeffs = np.fft.ifftn(samples, axes=tuple(range(d)))

    entries = {}
    off_support = np.ones(grid, dtype=bool)
    for m, label in support:
        off_support[m] = False
        if maxabs(coeffs[m]) > _DROP_TOL:
            entries[label] = coeffs[m]
    rule = TransitionRule(entries=entries, internal_dim=samples.shape[-1])

    theta = np.random.default_rng(7).uniform(-np.pi, np.pi, size=(8, d))
    mismatch = assemble(rule, presentation, theta.T) - f(presentation.k_of_theta(theta))
    # maxabs keeps a NaN, and NaN fails the test.
    residual = maxabs(np.concatenate([coeffs[off_support], mismatch]))
    if not residual <= _EXTRACT_TOL:
        raise SupportMismatchError(
            f"closed form is not supported on the stated labels (residual {residual:.3e})"
        )
    return rule


def spectrum(descriptor, k):
    """Eigenphases in (-pi, pi] (ascending) and orthonormal eigenvectors.

    Uses the complex Schur form; for a unitary operator it is diagonal, so
    the Schur vectors are an orthonormal eigenbasis even at degeneracies.
    """
    import scipy.linalg  # only here, so that importing qca loads no scipy

    pres = descriptor.presentation
    a = assemble(descriptor.rule, pres, pres.theta_of(k))
    s = descriptor.internal_dim
    residual = maxabs(dagger(a) @ a - np.eye(s))
    if residual > _UNITARITY_TOL:
        raise ValueError(f"operator is not unitary at k={k}: residual {residual:.3e}")
    t, z = scipy.linalg.schur(a, output="complex")
    phases = principal_phase(np.diag(t))
    order = np.argsort(phases, kind="stable")
    return phases[order], z[:, order]
