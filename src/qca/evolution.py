"""Finite periodic-lattice field states and their unitary evolution.

States live on a torus of group coordinates with one complex amplitude per
(site, internal index).  Evolution is exact in the wave-vector picture: an
FFT block-diagonalizes the step into one small unitary per lattice mode, and
an empty mode stays empty.  A run holds only the modes its packet occupies
(Modes: grid indices plus a flat stack of amplitudes), and its set-up and
snapshot scale with that support: the envelope is evaluated on a per-axis
box, the per-mode matrices gather per-axis phase tables, the branch
projectors and powers (SpectralPlan) are in closed form for the Weyl and
Dirac rules, and the snapshot, a run's only inverse FFT, transforms in place
only the lines the held modes reach, axis 0 first, then per slab of axis-0
rows that streams to the file.  Moments are read off mode amplitudes.
A dense FieldState holds every site; the direct-sum oracle and tilings act on it.
"""

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .automaton import AutomatonDescriptor, TransitionRule, assemble
from .cayley import CayleyPresentation
from .errors import PacketBoundaryError, ZoneLeakError
from .pauli import maxabs

# A plan takes the closed-form power when ||W + W^dagger - 2cI|| stays below
# this on every mode.
_CLOSED_FORM_TOL = 1e-12
_BRANCH_GAP = 1e-8
_CHUNK = 4096  # modes per pass of SpectralPlan's decomposition
_BLOCK_BYTES = 1 << 20  # per slab of Modes.ifft_slabs


@dataclass(frozen=True)
class LatticeSpec:
    """Periodic extent of the simulation torus, one size per free coordinate."""

    presentation: CayleyPresentation
    sizes: tuple

    def __post_init__(self):
        if len(self.sizes) != self.presentation.dimension:
            raise ValueError("one size per lattice dimension required")
        if any(n < 2 for n in self.sizes):
            raise ValueError("lattice sizes must be at least 2")


@dataclass(frozen=True)
class FieldState:
    """Complex amplitudes over (site coordinates, internal index)."""

    lattice: LatticeSpec
    internal_dim: int
    amplitudes: np.ndarray
    time: int = 0

    def __post_init__(self):
        expected = tuple(self.lattice.sizes) + (self.internal_dim,)
        if self.amplitudes.shape != expected:
            raise ValueError(
                f"amplitude shape {self.amplitudes.shape} != expected {expected}"
            )


def random_state(lattice, internal_dim, rng):
    shape = tuple(lattice.sizes) + (internal_dim,)
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    amps /= np.sqrt(np.sum(amps.real ** 2 + amps.imag ** 2))
    return FieldState(lattice=lattice, internal_dim=internal_dim, amplitudes=amps)


def step_direct(state, descriptor):
    """One step by explicit neighborhood sums with periodic wraparound.

    psi'_g = sum_h A_h psi_{g-h}; the independent oracle for SpectralPlan.
    """
    if state.lattice.presentation != descriptor.presentation:
        raise ValueError("state lattice and descriptor use different presentations")
    if state.internal_dim != descriptor.internal_dim:
        raise ValueError("internal dimension mismatch between state and rule")
    d = state.lattice.presentation.dimension
    axes = tuple(range(d))
    out = np.zeros_like(state.amplitudes)
    for label, block in descriptor.rule.entries.items():
        shift = descriptor.presentation.coordinates[label]
        rolled = np.roll(state.amplitudes, shift=shift, axis=axes)
        out += rolled @ block.T
    return replace(state, amplitudes=out, time=state.time + 1)


def _theta_axes(sizes):
    return [2.0 * np.pi * np.fft.fftfreq(n) for n in sizes]


class Modes:
    """The modes a run holds: increasing C-order flat indices `index` into
    the FFT grid `sizes`, every mode when omitted.  Their amplitudes are a
    flat stack of shape (len(index), s)."""

    def __init__(self, sizes, index=None):
        self.sizes = tuple(int(n) for n in sizes)
        self.count = int(np.prod(self.sizes))
        self.index = np.arange(self.count) if index is None else np.asarray(index)
        self._neighbors = None

    def neighbors(self):
        """Row j: the row of each held mode's neighbor k - e_j (mod n_j), or -1
        where that neighbor is not held; built on first use."""
        if self._neighbors is None:
            neighbors, stride = [], self.count
            for n in self.sizes:
                stride //= n
                # The flat index of k - e_j: one stride back, or n - 1 forward at 0.
                flat = self.index + np.where(self.index // stride % n, -stride, (n - 1) * stride)
                # With every mode held, a mode's row is its flat index.
                rows = (flat if len(flat) == self.count
                        else np.searchsorted(self.index, flat) % len(flat))
                neighbors.append(np.where(self.index[rows] == flat, rows, -1))
            self._neighbors = np.stack(neighbors)
        return self._neighbors

    def ifftn(self, hat):
        """Lattice amplitudes: the slabs of ifft_slabs, as one slab."""
        slab, = self.ifft_slabs(hat, self.sizes[0])
        return slab

    def ifft_slabs(self, hat, rows=None):
        """np.fft.ifftn, bit for bit, of the grid holding `hat` on these modes and
        zero elsewhere, over axes (d - 1, ..., 0): numpy takes the last listed axis
        first, so axis 0 is transformed first, then 1, 2, ...  Yields C-contiguous
        slabs of `rows` axis-0 rows (by default about _BLOCK_BYTES), shape (rows,
        *sizes[1:], s): one span each of the snapshot body.  Each pass transforms
        only the lines that reach a mode, full lines reshaped and not scattered, in
        place unless on a view of `hat`; the axis-0 pass runs once, the others per slab."""
        s, tail, passes, keys = hat.shape[-1], self.count, [], self.index
        for n in self.sizes:
            # Axis j's lines are the distinct C-order indices over axes j + 1, ...
            tail //= n
            lines, inverse = np.unique(keys % tail, return_inverse=True)
            flat = keys // tail * len(lines) + inverse  # (coordinate j, line) of each key
            passes.append((n, len(lines), None if len(keys) == n * len(lines) else flat))
            keys = lines

        def transform(part, n, lines, flat):
            """(A, lines before, s) -> (A * n, lines, s)."""
            grid = part
            if flat is not None:
                grid = np.zeros((len(part), n * lines, s), dtype=complex)
                grid[:, flat] = part
            grid = grid.reshape(len(part), n, lines, s)
            grid = np.fft.ifft(grid, axis=1, out=None if np.may_share_memory(grid, hat) else grid)
            return grid.reshape(-1, lines, s)

        first = transform(hat[None], *passes[0])  # (sizes[0], lines, s)
        rows = rows or max(1, _BLOCK_BYTES // (16 * s * (self.count // self.sizes[0])))
        for lo in range(0, self.sizes[0], rows):
            slab = first[lo:lo + rows]
            for n, lines, flat in passes[1:]:
                slab = transform(slab, n, lines, flat)
            yield slab.reshape((-1,) + self.sizes[1:] + (s,))


def mode_matrices(descriptor, modes):
    """Stacked per-mode step operators of the held modes, shape (len(modes.index), s, s),
    from per-axis phase tables gathered by the modes' coordinates."""
    return assemble(descriptor.rule, descriptor.presentation, _theta_axes(modes.sizes),
                    np.unravel_index(modes.index, modes.sizes))


def _apply(mats, hat):
    return np.einsum("...ab,...b->...a", mats, hat)


class SpectralPlan:
    """The spectral decomposition of a stack of per-mode steps, built once per run.

    `mats` is the (M, s, s) stack, one small unitary W per mode; `modes` the
    Modes it is held on (mode_matrices(descriptor, modes)), or None for a
    bare stack.  Each W is stored flat with c = Re tr W / s and sin(w) =
    ||W - cI||_F / sqrt(s).  When W + W^dagger = 2cI on every mode, as for
    every Weyl and Dirac rule, W^n has the closed form cos(nw) I +
    sin(nw)/sin(w) (W - cI) and costs the same for any n, and so have the
    branch projectors.  Any other rule (tilings, user descriptors) takes
    batched matrix powers, cached once per step count, and eig projectors.
    """

    def __init__(self, mats, modes=None):
        self.mats, self.modes, s = mats, modes, mats.shape[-1]
        d = [mats[:, i, i] for i in range(s)]
        # A diagonal sum from 0, in pairs at s = 4 as np.trace adds them there, so
        # that Weyl and Dirac plans keep its bits; np.trace runs ~8x slower here.
        trace = 0.0 + ((d[0] + d[1]) + (d[2] + d[3]) if s == 4 else sum(d))
        self.cos = trace.real / s
        self.sin, defect = np.empty(len(mats)), []
        for lo in range(0, len(mats), _CHUNK):
            # W - cI on a chunk of modes.  The test reads the squared entries of
            # W - cI + (W - cI)^dagger, where a NaN propagates and fails it.
            x = mats[lo:lo + _CHUNK].copy()
            x.reshape(len(x), -1)[:, ::s + 1] -= self.cos[lo:lo + _CHUNK, None]
            re, im = x.real + x.real.swapaxes(1, 2), x.imag - x.imag.swapaxes(1, 2)
            defect.append(np.max(re * re + im * im))
            # ||W - cI||_F, with the squares formed as np.linalg.norm forms them.
            np.multiply(x, x.conj(), out=x)
            self.sin[lo:lo + _CHUNK] = np.sqrt(np.add.reduce(x.real, axis=(1, 2))) / np.sqrt(s)
        self.closed_form = maxabs(defect) <= _CLOSED_FORM_TOL ** 2
        # No branch is defined where one side of the spectrum c -+ i sin(w) is
        # empty (|Im tr W| = s sin(w)) or W = +-I up to roundoff.
        self._no_branch = (2.0 * self.sin < _BRANCH_GAP) | (np.abs(trace.imag) > (s - 1) * self.sin)
        # atan2 rather than arccos keeps full precision where sin(w) -> 0.
        self.omega = np.arctan2(self.sin, self.cos)
        self._powers = {}

    def _power(self, steps):
        if steps not in self._powers:
            if self.closed_form:
                # sin(nw)/sin(w) tends to n c^(n-1) where sin(w) = 0 (W = +-I).
                ratio = np.divide(
                    np.sin(steps * self.omega), self.sin,
                    out=steps * self.cos ** (steps - 1), where=self.sin > 0,
                )
                self._powers[steps] = (np.cos(steps * self.omega), ratio)
            else:
                self._powers[steps] = np.linalg.matrix_power(self.mats, steps)
        return self._powers[steps]

    def _kernel(self, a, b, hat):
        """a hat + b (W - cI) hat per held mode, with no stored W - cI."""
        out = _apply(self.mats, hat)
        out -= self.cos[:, None] * hat
        out *= b[:, None]
        out += a[:, None] * hat
        return out

    def advance(self, hat, steps):
        """Amplitudes of the held modes after `steps` applications of the step."""
        if hat.shape != self.mats.shape[:-1]:
            raise ValueError(f"mode amplitudes {hat.shape} do not fit the plan")
        if steps < 0:
            raise ValueError("steps must be non-negative")
        if steps == 0:
            return hat.copy()
        power = self._power(steps)
        return self._kernel(*power, hat) if self.closed_form else _apply(power, hat)

    def project(self, vec, branch):
        """_apply(P, vec) with P each held mode's branch projector: in closed form
        (eigenvalues c -+ i sin(w)) P_plus/minus = I/2 +- i (W - cI) / (2 sin(w)),
        or I with no branch, else _branch_projectors(self.mats, branch)."""
        if not self.closed_form:
            return _apply(_branch_projectors(self.mats, branch), vec)
        b = np.divide(0.5j if branch == "plus" else -0.5j, self.sin,
                      out=np.zeros(len(self.sin), dtype=complex), where=~self._no_branch)
        return self._kernel(np.where(self._no_branch, 1.0, 0.5), b, vec)


@dataclass(frozen=True)
class WavePacketSpec:
    """Gaussian wave packet in the wave-vector picture.

    center_k is Cartesian; sigma_k is the standard deviation of |psi_hat|^2;
    center_x is the site (group coordinates) where the packet localizes;
    branch selects the negative- ("plus", positive energy) or positive-
    eigenphase subspace of the step operator.
    """

    center_k: tuple
    sigma_k: float
    center_x: tuple
    branch: str = "plus"

    def __post_init__(self):
        if self.branch not in ("plus", "minus"):
            raise ValueError("branch must be 'plus' or 'minus'")
        if not (np.isfinite(self.sigma_k) and self.sigma_k > 0):
            raise ValueError("sigma_k must be positive and finite")
        if not np.all(np.isfinite(self.center_k)):
            raise ValueError("center_k must be finite")


def _branch_projectors(mats, branch):
    """Spectral projectors V diag(want) V^-1 onto the branch of stacked
    matrices, from one batched eig.

    "plus" keeps the eigenphases <= 0 and "minus" the positive ones.  A matrix
    keeps its whole space when no eigenvalue is on the wanted side, or when a
    wanted and an unwanted eigenvalue lie within _BRANCH_GAP: that is one
    degenerate eigenvalue split by roundoff (a band-touching mode, W = +-I),
    where no branch is defined.
    """
    vals, vecs = np.linalg.eig(mats)
    phases = np.angle(vals)
    want = phases <= 0 if branch == "plus" else phases > 0
    gaps = np.abs(vals[..., :, None] - vals[..., None, :])
    split = want[..., :, None] & ~want[..., None, :] & (gaps < _BRANCH_GAP)
    whole = np.all(want, axis=-1) | ~np.any(want, axis=-1) | np.any(split, axis=(-2, -1))
    out = (vecs * want[..., None, :]) @ np.linalg.inv(vecs)
    out[whole] = np.eye(mats.shape[-1])
    return out


def packet_modes(spec, descriptor, lattice):
    """Gaussian envelope times the branch eigenvector, localized at center_x,
    as amplitudes of the modes it occupies.

    The packet occupies the modes where the envelope exceeds 1e-14.  Returns
    the SpectralPlan built on exactly these modes and their amplitudes,
    normalized by Parseval so that the lattice state has norm 1.  The
    envelope is checked to be below 1e-12 at the aliasing seam of the mode
    grid (the band edge); wider packets raise ZoneLeakError.
    """
    if lattice.presentation != descriptor.presentation:
        raise ValueError("lattice and descriptor use different presentations")
    pres = descriptor.presentation
    d = pres.dimension
    sizes = tuple(lattice.sizes)
    s = descriptor.internal_dim
    k0 = np.asarray(spec.center_k, dtype=float)
    theta0 = pres.theta_of(k0)
    thetas = _theta_axes(sizes)

    wrapped = [np.mod(t - t0 + np.pi, 2.0 * np.pi) - np.pi for t, t0 in zip(thetas, theta0)]
    # The envelope passes the 1e-14 cut only at Cartesian offsets |dk| < radius,
    # so only where |wrapped_j| = |h_j . dk| <= |h_j| radius (h_j: basis column).
    radius = 2.0 * spec.sigma_k * np.sqrt(np.log(1e14)) * (1.0 + 1e-9)  # + roundoff
    box = [np.flatnonzero(np.abs(w) <= radius * np.linalg.norm(h))
           for w, h in zip(wrapped, pres.basis_matrix.T)]
    dk = np.stack(np.meshgrid(*[w[b] for w, b in zip(wrapped, box)], indexing="ij"),
                  axis=-1) @ pres.dual_matrix.T
    envelope = np.exp(-np.sum(dk * dk, axis=-1) / (4.0 * spec.sigma_k ** 2))

    for j in range(d):
        # A seam row outside the box is below 1e-14 there.
        seam = np.flatnonzero(box[j] == np.argmin(np.cos(thetas[j] - theta0[j])))
        if float(np.max(envelope.take(seam, axis=j), initial=0.0)) > 1e-12:
            raise ZoneLeakError(f"sigma_k={spec.sigma_k} leaks past the mode-grid seam on axis {j}")

    keep = envelope > 1e-14
    index = np.ravel_multi_index(np.ix_(*box), sizes)[keep]
    if index.size == 0:
        raise ValueError(f"sigma_k={spec.sigma_k} is narrower than the mode grid")
    modes = Modes(sizes, index)
    plan = SpectralPlan(mode_matrices(descriptor, modes), modes)

    # Rows: the reference's branch projector times each unit vector, in closed
    # form where A(theta0) passes the test (every Weyl and Dirac rule), else by eig.
    reference = SpectralPlan(assemble(descriptor.rule, pres, theta0).reshape(1, s, s))
    cols = reference.project(np.eye(s), spec.branch)
    # The first column of (nearly) largest norm: symmetric rules tie exactly,
    # and roundoff must not pick the reference.
    norms = np.linalg.norm(cols, axis=1)
    ref = cols[int(np.argmax(norms >= (1.0 - 1e-9) * np.max(norms)))]
    ref = ref / np.linalg.norm(ref)

    vecs = plan.project(ref, spec.branch)
    nv = np.linalg.norm(vecs, axis=-1)
    coords = np.unravel_index(index, sizes)
    x0 = np.asarray(spec.center_x, dtype=float)
    theta_x0 = sum(thetas[j][coords[j]] * x0[j] for j in range(d))
    # A branch subspace orthogonal to the reference is a tail mode: left empty.
    weight = np.divide(
        envelope[keep] * np.exp(-1j * theta_x0), nv,
        out=np.zeros(len(nv), dtype=complex), where=nv >= 1e-12,
    )
    amps = weight[:, None] * vecs
    # Parseval: sum_x |psi(x)|^2 = sum_k |psi_hat(k)|^2 / N; np.sum, not a BLAS dot (mode_moments).
    amps *= np.sqrt(modes.count) / np.sqrt(np.sum(amps.real ** 2 + amps.imag ** 2))
    return plan, amps


def make_packet(spec, descriptor, lattice):
    """The packet of packet_modes as a normalized lattice state."""
    plan, hat = packet_modes(spec, descriptor, lattice)
    return FieldState(lattice, hat.shape[-1], plan.modes.ifftn(hat))


class Moments(NamedTuple):
    """Norm of a state and, per axis, the circular mean (group coordinates)
    and resultant length of |psi|^2."""

    norm: float
    means: np.ndarray
    resultants: np.ndarray


def mode_moments(hat, modes):
    """Moments of |psi|^2 read off the amplitudes `hat` of `modes`, with no
    inverse FFT.

    With numpy's fftn sign convention, sum_x |psi(x)|^2 exp(2 pi i x_j / n_j)
    = sum_k psi_hat(k)^dagger psi_hat(k - e_j) / N, where a neighbor k - e_j
    that is not held is empty.
    """
    # The appended zero row is every neighbor that is not held (row -1); np.take
    # gathers rows about twice as fast as fancy indexing.  np.sum's pairwise sums,
    # unlike BLAS dots, keep their bits whatever the BLAS thread count.
    near = np.take(np.concatenate([hat, np.zeros((1, hat.shape[-1]))]), modes.neighbors(), axis=0)
    near *= hat.conj()
    total = np.sum(hat.real ** 2 + hat.imag ** 2) / modes.count
    z = np.sum(near.reshape(len(near), -1), axis=1) / modes.count / total
    means = (np.angle(z) % (2.0 * np.pi)) * np.asarray(modes.sizes) / (2.0 * np.pi)
    return Moments(float(np.sqrt(total)), means, np.abs(z))


def check_seam(moments, sizes):
    """Raise PacketBoundaryError if the packet's mass lies within three circular
    standard deviations of the wrap seam, where its mean is not defined."""
    for j, resultant in enumerate(moments.resultants):
        r = min(max(resultant, 1e-300), 1.0)
        circ_std = np.sqrt(max(-2.0 * np.log(r), 0.0)) * sizes[j] / (2.0 * np.pi)
        # Written so that a NaN resultant fails the check.
        if not 3.0 * circ_std < sizes[j] / 2.0:
            raise PacketBoundaryError(f"packet mass within 3 sigma of the wrap seam on axis {j}")


class Record(NamedTuple):
    """A run after `step` steps: its moments and its unwrapped means."""

    step: int
    moments: Moments
    position: np.ndarray


class Run(NamedTuple):
    """A run's last mode amplitudes, records, and velocity per step or None and why."""

    hat: np.ndarray
    records: list
    velocity: np.ndarray
    velocity_error: str = None


def run(plan, hat, steps, stride, x0):
    """Advance plan's mode amplitudes `hat` by `steps` >= 1 steps, recording at step
    0, every `stride` (0: steps // 50, at least 1) steps and the last.  Each record
    unwraps its means in [0, n) to their image within n/2 of the record before (step
    0: of the site x0).  The velocity (group coordinates) is the slope, exact unless
    a stride moves the packet over n/2; None if check_seam refuses the first or last."""
    period = np.asarray(plan.modes.sizes, dtype=float)
    stride, position, records = stride or max(1, steps // 50), np.asarray(x0, dtype=float), []
    for step in [0, *range(stride, steps, stride), steps]:
        hat = plan.advance(hat, step - records[-1].step) if step else hat
        moments = mode_moments(hat, plan.modes)
        position = moments.means - period * np.round((moments.means - position) / period)
        records.append(Record(step, moments, position))
    try:
        for record in (records[0], records[-1]):
            check_seam(record.moments, plan.modes.sizes)
    except PacketBoundaryError as exc:
        return Run(hat, records, None, str(exc))
    return Run(hat, records, (position - records[0].position) / steps)


def tile_descriptor(descriptor, tiling):
    """Regrouped automaton on the sublattice with internal dimension s * r.

    The coarse blocks are read off from psi_{c_i + g'} updates: for every
    coset representative c_i and fine label h, c_i - h = c_j + M g'' places
    A_h into the (i, j) block of the coarse matrix at coarse shift -g''.
    """
    pres = descriptor.presentation
    r = tiling.index
    s = descriptor.internal_dim
    coarse_pres = tiling.coarse_presentation
    coords_to_label = {coords: label for label, coords in coarse_pres.coordinates.items()}

    blocks = {}
    for i, rep in enumerate(tiling.coset_reps):
        for label, block in descriptor.rule.entries.items():
            shift = np.subtract(rep, pres.coordinates[label])
            j, g = tiling.decompose(shift)
            key = tuple(int(v) for v in -g)
            coarse_label = coords_to_label[key]
            if coarse_label not in blocks:
                blocks[coarse_label] = np.zeros((s * r, s * r), dtype=complex)
            blocks[coarse_label][i * s:(i + 1) * s, j * s:(j + 1) * s] += block

    rule = TransitionRule(entries=blocks, internal_dim=s * r)
    name = f"{descriptor.name}/tiled-x{r}" if descriptor.name else f"tiled-x{r}"
    return AutomatonDescriptor(presentation=coarse_pres, rule=rule, name=name)


def regrouping_steps(tiling):
    """Per-axis steps of a diagonal sublattice basis, the only kind states regroup onto."""
    basis = tiling.basis_matrix
    if np.any(basis != np.diag(np.diag(basis))):
        raise ValueError("state regrouping supports diagonal sublattice bases only")
    return np.abs(np.diag(basis))


def apply_tiling(state, tiling):
    """Regroup amplitudes onto the sublattice: (coset, spinor) -> internal."""
    sizes = state.lattice.sizes
    diag = regrouping_steps(tiling)
    for n, step in zip(sizes, diag):
        if n % step:
            raise ValueError(f"lattice size {n} not divisible by sublattice step {step}")
    coarse_sizes = tuple(int(n // step) for n, step in zip(sizes, diag))
    s = state.internal_dim
    r = tiling.index
    coarse_pres = tiling.coarse_presentation
    coarse_lattice = LatticeSpec(presentation=coarse_pres, sizes=coarse_sizes)
    out = np.zeros(tuple(coarse_sizes) + (s * r,), dtype=complex)
    for i, rep in enumerate(tiling.coset_reps):
        slicer = tuple(slice(start, None, step) for start, step in zip(rep, diag))
        out[..., i * s:(i + 1) * s] = state.amplitudes[slicer]
    return FieldState(
        lattice=coarse_lattice, internal_dim=s * r, amplitudes=out, time=state.time
    )

