"""Massive (s = 4) automaton built by locally coupling two chiral automata.

The step operator couples a chiral walk W(k) and its adjoint through a
constant off-diagonal mass block,

    D(k) = [[n W(k)^+, i m I], [i m I, n W(k)]],   n^2 + m^2 = 1,

which is unitary for every k and mass.  In the gamma-matrix form (chiral
representation, gamma0 off-diagonal) this reads
D = n u I - i n gamma0 gamma . ntilde + i m gamma0, with eigenphases
+-arccos(n u), each doubly degenerate.
"""

from dataclasses import dataclass

import numpy as np

from . import weyl
from .errors import QcaError
from .pauli import ID2, PAULI, dagger, maxabs, principal_phase

_Z2 = np.zeros((2, 2), dtype=complex)

GAMMA0 = np.block([[_Z2, ID2], [ID2, _Z2]])
GAMMA = tuple(np.block([[_Z2, PAULI[j]], [-PAULI[j], _Z2]]) for j in range(3))
# gamma0 gamma_j = diag(-sigma_j, sigma_j): the Hermitian kinetic blocks.
GAMMA0_GAMMA = tuple(GAMMA0 @ GAMMA[j] for j in range(3))
# Wave-vectors at which the coupling probe's optimizer evaluates the residual.
_N_K_OPTIMIZE = 12
_MAX_NFEV, _TOL = 400, 1e-8  # the probe's solver: evaluation budget; ftol = xtol = gtol


@dataclass(frozen=True)
class DiracDescriptor:
    """A chiral variant plus the mass parameter m in [0, 1]."""

    weyl: weyl.WeylVariant
    mass: float

    def __post_init__(self):
        if not 0.0 <= self.mass <= 1.0:
            raise ValueError("mass must lie in [0, 1]")

    @property
    def n(self):
        return float(np.sqrt(1.0 - self.mass * self.mass))

    @property
    def dimension(self):
        return self.weyl.dimension


def dirac_matrix(dd, k):
    """Step operator with blocks n W^+, n W and constant i m off-diagonal, at
    wave-vectors k of shape (..., d); shape (..., 4, 4)."""
    im = 1j * dd.mass
    return _coupled((dd.n, im, im, dd.n, ID2, ID2), weyl.weyl_matrix(dd.weyl, k), True)


def _gamma_sum(a, v):
    """a gamma0 + sum_j v_j gamma0 gamma_j for a scalar a and a 3-vector v."""
    out = a * GAMMA0
    for j in range(3):
        out = out + v[j] * GAMMA0_GAMMA[j]
    return out


def gamma_form(dd, k):
    """The same operator written with gamma matrices (used as a cross-check)."""
    u, nt, _, _ = weyl.closed_form(dd.weyl, k)
    return dd.n * u * np.eye(4, dtype=complex) + _gamma_sum(1j * dd.mass, -1j * dd.n * nt)


def dirac_dispersion(dd, k):
    """Doubly degenerate eigenphase branches +-arccos(n u(k)) at wave-vectors
    k of shape (..., d): the chiral dispersion at scale n."""
    return weyl.dispersion(dd.weyl, k, scale=dd.n)


def dirac_interpolating_hamiltonian(dd, k):
    """Hermitian H with exp(-i H) = D(k); eigenvalues +-omega, each twice: the
    chiral walk's at scale n, f n gamma0 gamma . ntilde, plus the mass term -f m gamma0."""
    f, nt = weyl._log_factor(dd.weyl, k, dd.n)
    return _gamma_sum(-f * dd.mass, f * dd.n * nt)


def dirac_small_k_hamiltonian(dd, k):
    """Literal first-order expansion of the interpolating Hamiltonian at k=0,
    from the chiral walk's linearization at scale n.

    For the canonical variants this is f0 (n/sqrt(d) gamma0 gamma . M k
    - m gamma0) with f0 = omega0/sin(omega0), omega0 = arccos(n): the
    eigenvalues are +-f0 sqrt(n^2 |k|^2 / d + m^2), which approaches the
    continuum +-sqrt(n^2 |k|^2 / d + m^2) as f0 = 1 + O(m^2).  Off the
    canonical family (theta != 0) f also varies to first order.
    """
    k = np.asarray(k, dtype=float)
    n0, jac_n, f0, grad_f = weyl._linearization(dd.weyl, dd.n)
    return _gamma_sum(-dd.mass * (f0 + grad_f @ k), dd.n * (n0 + jac_n @ k))


def _coupled(params, w, adjoint_first):
    """The constant-block ansatz [[p W', q X], [r Y, t W]], W' = W^+ where adjoint_first (one
    flag, or flags broadcast against w) else W, for a stack w (..., 2, 2); shape (..., 4, 4)."""
    p, q, r, t, x_block, y_block = params
    out = np.empty(w.shape[:-2] + (4, 4), dtype=complex)
    out[..., :2, :2] = p * np.where(adjoint_first, dagger(w), w)
    out[..., :2, 2:] = q * x_block
    out[..., 2:, :2] = r * y_block
    out[..., 2:, 2:] = t * w
    return out


def _unitarity_defect(d):
    """D^+ D - I for a stack d of shape (..., 4, 4)."""
    return dagger(d) @ d - np.eye(4)


def coupling_unitarity_residual(p, q, r, t, x_block, y_block, variant, k_samples,
                                adjoint_first=True, ws=None):
    """Worst unitarity defect of the constant-block coupling ansatz.

    The candidate step operator is [[p W', q X], [r Y, t W]] with W' either
    W(k)^+ (the arrangement that contains the mass family) or W(k); ws, if given, is W at k_samples.
    """
    if ws is None:
        ws = weyl.weyl_matrix(variant, np.atleast_2d(np.asarray(k_samples, dtype=float)))
    return maxabs(_unitarity_defect(_coupled((p, q, r, t, x_block, y_block), ws, adjoint_first)))


def _pack(params):
    """p, q, r, t (with two trailing unit axes) and X, Y from parameters (..., 12)."""
    return (*np.moveaxis(params[..., :4, None, None], -3, 0),
            *np.moveaxis(params[..., 4:].reshape(params.shape[:-1] + (2, 2, 2)), -3, 0))


def _residual_basis(variant, ks):
    """[I, sqrt(2) V_0, ..., sqrt(2) V_3], V_l = sum_mu R_l,mu E_mu for the QR factor R of
    the K x 4 matrix of the a(k) = (u, ntilde) in W(k) = sum_mu a_mu(k) E_mu, E = (I, -i sigma)."""
    u, nt, _, _ = weyl.closed_form(variant, ks)
    r = np.sqrt(2.0) * np.linalg.qr(np.column_stack([u, nt]), mode="r")
    return np.concatenate([ID2[None], np.tensordot(r, np.stack([ID2, *(-1j * PAULI)]), 1)])


# The weights of the entries of D^+ D - I over a _residual_basis that the residual keeps.
_WEIGHT = np.zeros((5, 4, 4))
_WEIGHT[0, :2, :2] = _WEIGHT[0, 2:, 2:] = np.sqrt(_N_K_OPTIMIZE)
_WEIGHT[1:, :2, 2:] = 1.0
_KEEP = _WEIGHT > 0


def _residual_and_jacobian(x, basis, adjoint_first):
    """f (T, 48) and J^T (T, 24, 48) of the probe's residual at the K = _N_K_OPTIMIZE
    wave-vectors of a _residual_basis, for trials x (T, 24) (real and imaginary parts
    interleaved) with flags adjoint_first (T,).  W(k) is unitary and linear in a(k), so
    sum_k |D^+ D - I|^2 = K |TL, BR at W = I|^2 + 2 sum_l |TR at W = V_l|^2, with the
    same J^T f and J^T J.  With C_i = dD/dz_i, D^+ D changes by C_i^+ D + h.c. along
    Re z_i and -i C_i^+ D + h.c. along Im z_i.  Each C_i^+ D is one block row of
    D = [[P, Q], [R, T]]: rows 0-1 hold W'^+ [P Q] for p and Y^+ [R T] for r; rows 2-3
    X^+ [P Q] for q and W^+ [R T] for t; row 2+b conj(q) D's row a for X_ab, and row b
    conj(r) D's row 2+a for Y_ab."""
    _, q, r, _, x_block, y_block = params = _pack((x[:, 0::2] + 1j * x[:, 1::2])[:, None])
    flags, ws = adjoint_first[:, None, None, None], np.broadcast_to(basis, (len(x),) + basis.shape)
    d, w_h = _coupled(params, ws, flags), dagger(ws)
    top, bottom, rows = d[..., :2, :], d[..., 2:, :], np.moveaxis(d, -2, 0)
    cd = np.zeros((12,) + d.shape, dtype=complex)
    cd[0, ..., :2, :], cd[1, ..., 2:, :] = np.where(flags, ws, w_h) @ top, dagger(x_block) @ top
    cd[2, ..., :2, :], cd[3, ..., 2:, :] = dagger(y_block) @ bottom, w_h @ bottom
    ab = np.arange(4)
    cd[4 + ab, ..., 2 + ab % 2, :] = np.conj(q[..., 0]) * rows[ab // 2]
    cd[8 + ab, ..., ab % 2, :] = np.conj(r[..., 0]) * rows[2 + ab // 2]
    cd_h = np.conj(np.swapaxes(cd, -1, -2)[..., _KEEP]) * _WEIGHT[_KEEP]
    cd = cd[..., _KEEP] * _WEIGHT[_KEEP]
    jac = np.moveaxis(np.stack([cd + cd_h, 1j * (cd_h - cd)], axis=1), 2, 0)
    res = _unitarity_defect(d)[..., _KEEP] * _WEIGHT[_KEEP]
    # J^T in C order for any batch size: a strided one changes BLAS's sums with the batch.
    return (np.concatenate([res.real, res.imag], axis=-1),
            np.ascontiguousarray(np.concatenate([jac.real, jac.imag], -1)).reshape(-1, 24, 48))


def _solve(normal, rhs):
    """np.linalg.solve on a stack of systems; when one is singular, each is solved
    alone and the singular ones give NaN."""
    try:
        return np.linalg.solve(normal, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(rhs) == 1:
            return np.full(rhs.shape, np.nan)
        return np.concatenate([_solve(a[None], b[None]) for a, b in zip(normal, rhs)])


def _levenberg_marquardt(fun, x):
    """Levenberg-Marquardt on trials x (T, n), fun(y, trials) giving f (rows, m) and J^T
    (rows, n, m): a local minimum of |f|^2 per trial.  Each trial's damping scales with the
    largest diag(J^T J) it has seen (as in MINPACK), so a column that fades near a manifold
    of solutions (X's as q -> 0) stays damped.  A trial leaves the batch when its ftol,
    xtol or gtol test passes at _TOL, or after _MAX_NFEV evaluations.  Returns the fits
    (NaN after a singular or non-finite step) and each trial's evaluations."""
    fits, nfev = np.full(x.shape, np.nan), np.zeros(len(x), dtype=int)
    trials, ii, evaluations, stop = np.arange(len(x)), np.arange(x.shape[1]), 1, False
    f, jac_t = fun(x, trials)
    cost, damping, scale = (f[:, None] @ f[..., None])[:, 0, 0], np.full(len(x), 1e-3), 0.0
    while True:
        grad, normal = (jac_t @ f[..., None])[..., 0], jac_t @ jac_t.transpose(0, 2, 1)
        diag = normal[:, ii, ii]
        stop |= np.all(np.abs(grad) <= _TOL * np.sqrt(cost[:, None] * diag), axis=1)
        scale = np.maximum(scale, diag)
        normal[:, ii, ii] += damping[:, None] * scale
        step = _solve(normal, -grad)
        failed = ~stop & ~np.all(np.isfinite(step), axis=1)
        stop |= failed | (evaluations >= _MAX_NFEV)
        fits[trials[stop & ~failed]], nfev[trials[stop]] = x[stop & ~failed], evaluations
        trials, x, f, jac_t, cost, damping, scale, step = (
            a[~stop] for a in (trials, x, f, jac_t, cost, damping, scale, step))
        if not trials.size:
            return fits, nfev
        f_new, jac_t_new = fun(x + step, trials)
        evaluations += 1
        cost_new = (f_new[:, None] @ f_new[..., None])[:, 0, 0]
        better = cost_new < cost
        stop = ((np.linalg.norm(step, axis=1) <= _TOL * (_TOL + np.linalg.norm(x, axis=1)))
                | better & (cost - cost_new <= _TOL * cost))
        x, f, jac_t = (np.where(better.reshape((-1,) + (1,) * (a.ndim - 1)), b, a)
                       for a, b in ((x, x + step), (f, f_new), (jac_t, jac_t_new)))
        cost = np.where(better, cost_new, cost)
        damping = np.where(better, damping / 10.0, damping * 10.0)


def _wrap_phase(x):
    return (x + np.pi) % (2.0 * np.pi) - np.pi


def _median(x):
    """np.median of finite x, bit for bit (np.mean sums the middle one or two from
    +0.0), without the numpy.ma import of np.median's first call."""
    x, h = np.sort(x), len(x) // 2
    return 0.0 + x[h] if len(x) % 2 else (0.0 + x[h - 1] + x[h]) / 2.0


def _verification_set(variant, ks):
    """W, omega = arccos u and the mask of the ks off the band edges, which alone fix nu, delta."""
    omegas = weyl._omega(weyl.closed_form(variant, ks)[0])
    usable = ~((np.sin(omegas) < 0.2) | (np.cos(omegas) < 0.2))
    if np.count_nonzero(usable) < 3:
        raise QcaError("--k-samples: fewer than 3 verification wave-vectors avoid the band edges")
    return weyl.weyl_matrix(variant, ks), omegas, usable


def _dressed_family_fit(ws, omegas, usable, candidate_params, adjoint_first, tol=1e-5):
    """Fit the candidate's spectra to the phase-dressed mass family.

    Unitary members of the constant-block ansatz factor, modulo constant
    conjugation, into a global phase gamma, a relative block phase delta
    and a mass: their eigenphases at every k are

        gamma +- arccos(nu cos(omega(k) +- delta)),   nu = sqrt(1 - m^2),

    with omega(k) = arccos u(k), at a _verification_set.  Returns (gamma,
    delta, nu, worst error) or None when no such triple reproduces the spectra.
    """
    mats = _coupled(_pack(candidate_params), ws, adjoint_first)
    spectra = np.sort(principal_phase(np.linalg.eigvals(mats)), axis=-1)
    cos_w, sin_w = np.cos(omegas[usable]), np.sin(omegas[usable])

    # Estimate gamma from the trace, resolving its pi ambiguity by fit.
    best = None
    trace = np.trace(mats[0])
    trace_phase = float(np.angle(trace)) if abs(trace) > 1e-9 else 0.0
    for gamma in (trace_phase, _wrap_phase(trace_phase + np.pi)):
        dev = np.sort(_wrap_phase(spectra - gamma), axis=-1)
        # The deviations must come in +- pairs at every wave-vector.
        if np.any(np.abs(dev[..., :2] + dev[..., 3:1:-1]) > 1e-3):
            continue
        cos_a, cos_b = np.cos(dev[..., 3][usable]), np.cos(dev[..., 2][usable])
        x1 = float(_median((cos_a + cos_b) / (2.0 * cos_w)))
        x2 = float(_median(-(cos_a - cos_b) / (2.0 * sin_w)))
        nu = float(np.hypot(x1, x2))
        delta = float(np.arctan2(x2, x1))
        if nu > 1.0 + 1e-6:
            continue
        pa = np.arccos(np.clip(nu * np.cos(omegas + delta), -1, 1))
        pb = np.arccos(np.clip(nu * np.cos(omegas - delta), -1, 1))
        model = np.sort(principal_phase(
            np.exp(1j * (gamma + np.stack([pa, -pa, pb, -pb], axis=-1)))), axis=-1)
        worst = float(np.max(np.abs(_wrap_phase(spectra - model))))
        if worst < tol and (best is None or worst < best[3]):
            best = (gamma, delta, nu, worst)
    return best


def probe_setup(variant=None, seed=0, n_k_verify=50):
    """What the coupling probe's trials share, drawn before any trial: the
    variant, the generator the trials continue, the _residual_basis of the
    optimizer's wave-vectors and the _verification_set.  Raises QcaError when fewer than
    3 verification wave-vectors avoid the band edges."""
    if variant is None:
        variant = weyl.WeylVariant(3, kind="A", sign=1)
    rng = np.random.default_rng(seed)
    d = variant.dimension
    ks_opt = rng.uniform(-1.5, 1.5, size=(_N_K_OPTIMIZE, d))
    ks_ver = rng.uniform(-1.5, 1.5, size=(n_k_verify, d))
    return variant, rng, _residual_basis(variant, ks_opt), _verification_set(variant, ks_ver)


def uniqueness_probe(setup, n_seeds=200, residual_tol=1e-6):
    """Randomized search for unitary couplings outside the mass family.

    Each trial draws a random constant-block ansatz from the probe_setup's
    generator; one batched solve locally minimizes every trial's unitarity
    residual; trials that converge below residual_tol are classified by their
    spectra; trials whose step was singular or not finite, or whose residual is
    not finite, are counted in optimizer_failures.  Desk-scale evidence, not a proof.
    """
    variant, rng, basis, ver = setup
    report = dict.fromkeys(("optimizer_failures", "converged_unitary", "decoupled_endpoint",
                            "flip_endpoint", "dressed_family", "exact_family", "off_family_hits"), 0)
    report.update(trials=n_seeds, best_nonfamily_residual=float("inf"), family_masses=[])
    flags, starts = np.zeros(n_seeds, dtype=bool), np.zeros((n_seeds, 24))
    for i in range(n_seeds):
        flags[i], starts[i] = rng.integers(0, 2), rng.normal(scale=1.0, size=24)
    fits, _ = _levenberg_marquardt(
        lambda y, trials: _residual_and_jacobian(y, basis, flags[trials]), starts)
    for adjoint_first, fit in zip(flags, fits):
        z = fit[0::2] + 1j * fit[1::2]
        p, q, r, t, x_block, y_block = _pack(z)
        residual = coupling_unitarity_residual(p, q, r, t, x_block, y_block, variant, None,
                                               adjoint_first=adjoint_first, ws=ver[0])
        if not np.isfinite(residual):
            report["optimizer_failures"] += 1
            continue
        if residual >= residual_tol:
            report["best_nonfamily_residual"] = min(report["best_nonfamily_residual"], residual)
            continue
        report["converged_unitary"] += 1
        coupling = max(maxabs(q * x_block), maxabs(r * y_block))
        diagonal = maxabs(z[[0, 3]])
        if coupling < 1e-8:
            report["decoupled_endpoint"] += 1
            continue
        if diagonal < 1e-8:
            report["flip_endpoint"] += 1
            continue
        fit_result = _dressed_family_fit(*ver, z, adjoint_first)
        if fit_result is None:
            report["off_family_hits"] += 1
            report["best_nonfamily_residual"] = min(report["best_nonfamily_residual"], residual)
            continue
        gamma, delta, nu, _ = fit_result
        report["dressed_family"] += 1
        mass = float(np.sqrt(max(1.0 - nu * nu, 0.0)))
        report["family_masses"].append(mass)
        if abs(_wrap_phase(gamma)) < 1e-6 and abs(_wrap_phase(delta)) < 1e-6:
            report["exact_family"] += 1
    return report
