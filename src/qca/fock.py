"""Exact few-mode Fock-space oracle for the pair-operator statistics.

Polarization operators are smeared fermion-pair annihilators

    gamma^i = (2 N)^{-1/2} sum_q sum_ab (u^i . sigma)_{ab} phi_{q,a} psi_{q,b}

over a region of N pair modes with a flat profile.  The 1/sqrt(2) absorbs
the Pauli trace so that [gamma^i, gamma^j+] = delta_ij exactly on the
vacuum; on diluted states the commutator deviates by O(M/N) with M the
fermion count in the region.

States are sparse maps occupation-bitmask -> amplitude; creation and
annihilation carry the ordered-mode parity sign, which realizes the
canonical anticommutation relations exactly for any mode count (Python
integers keep the bitmask exact beyond 64 modes).
"""

from dataclasses import dataclass, field

import numpy as np

from . import maxwell
from .pauli import maxabs, pauli_dot

_POLARIZATION_K = np.array([0.0, 0.0, 0.4])
_MAX_MODES = 512  # fermionic modes


def _parity_below(mask, mode):
    return -1.0 if bin(mask & ((1 << mode) - 1)).count("1") % 2 else 1.0


def apply_annihilation(state, mode):
    """a_mode applied to a sparse state dict."""
    out = {}
    bit = 1 << mode
    for mask, amp in state.items():
        if mask & bit:
            new = mask ^ bit
            out[new] = out.get(new, 0.0) + amp * _parity_below(mask, mode)
    return out


def apply_creation(state, mode):
    """a_mode^+ applied to a sparse state dict."""
    out = {}
    bit = 1 << mode
    for mask, amp in state.items():
        if not mask & bit:
            new = mask | bit
            out[new] = out.get(new, 0.0) + amp * _parity_below(mask, mode)
    return out


def state_norm(state):
    return float(np.sqrt(sum(abs(a) ** 2 for a in state.values())))


def add_scaled(target, source, scale):
    for mask, amp in source.items():
        target[mask] = target.get(mask, 0.0) + scale * amp
    return target


@dataclass
class FockOracle:
    """Pair-mode region with its polarization contraction matrices.

    Mode layout: pair mode q owns four fermionic modes, ordered
    phi(q,0), phi(q,1), psi(q,0), psi(q,1) at indices 4q .. 4q+3.
    """

    n_pair_modes: int
    contractions: tuple = field(init=False)

    def __post_init__(self):
        if self.n_pair_modes < 1:
            raise ValueError("need at least one pair mode")
        if 4 * self.n_pair_modes > _MAX_MODES:
            raise ValueError(
                f"{4 * self.n_pair_modes} fermionic modes exceed the cap {_MAX_MODES}"
            )
        u1, u2 = maxwell.polarization_basis(_POLARIZATION_K, maxwell._DEFAULT_VARIANT)
        self.contractions = (pauli_dot(u1), pauli_dot(u2))

    def phi_mode(self, q, a):
        return 4 * q + a

    def psi_mode(self, q, b):
        return 4 * q + 2 + b

    def vacuum(self):
        return {0: 1.0 + 0.0j}

    def state_from_occupations(self, modes):
        mask = 0
        for mode in modes:
            bit = 1 << mode
            if mask & bit:
                raise ValueError(f"mode {mode} doubly occupied")
            mask |= bit
        return {mask: 1.0 + 0.0j}

    def filled_psi_state(self, count, component=0):
        """One psi fermion in each of the first `count` pair modes."""
        if count > self.n_pair_modes:
            raise ValueError("cannot fill more pair modes than the region holds")
        return self.state_from_occupations(
            [self.psi_mode(q, component) for q in range(count)]
        )

    def gamma_apply(self, state, polarization, adjoint=False):
        """gamma^i |state>, or gamma^i+ |state> when `adjoint`, with the flat
        profile and trace normalization."""
        s_mat = self.contractions[polarization]
        if adjoint:
            s_mat = np.conj(s_mat)
        scale = 1.0 / np.sqrt(2.0 * self.n_pair_modes)
        out = {}
        for q in range(self.n_pair_modes):
            for a in range(2):
                for b in range(2):
                    coeff = s_mat[a, b] * scale
                    if coeff == 0.0:
                        continue
                    phi, psi = self.phi_mode(q, a), self.psi_mode(q, b)
                    if adjoint:
                        tmp = apply_creation(apply_creation(state, phi), psi)
                    else:
                        tmp = apply_annihilation(apply_annihilation(state, psi), phi)
                    add_scaled(out, tmp, coeff)
        return out

    def occupation_counts(self, state):
        """(mean phi count, mean psi count) of a normalized sparse state."""
        total = sum(abs(a) ** 2 for a in state.values())
        phi_count = psi_count = 0.0
        for mask, amp in state.items():
            w = abs(amp) ** 2 / total
            for q in range(self.n_pair_modes):
                phi_count += w * ((mask >> self.phi_mode(q, 0)) & 1)
                phi_count += w * ((mask >> self.phi_mode(q, 1)) & 1)
                psi_count += w * ((mask >> self.psi_mode(q, 0)) & 1)
                psi_count += w * ((mask >> self.psi_mode(q, 1)) & 1)
        return phi_count, psi_count


def fock_commutator_deviation(oracle, occupations, polarizations=(0, 0)):
    """|| ([gamma^i, gamma^j+] - delta_ij) |state> || and the bound M/N.

    `occupations` is either a list of occupied mode indices or a sparse
    state dict; the computation is exact.
    """
    i, j = polarizations
    state = occupations if isinstance(occupations, dict) else \
        oracle.state_from_occupations(occupations)
    nrm = state_norm(state)
    state = {m: a / nrm for m, a in state.items()}

    forward = oracle.gamma_apply(oracle.gamma_apply(state, j, adjoint=True), i)
    backward = oracle.gamma_apply(oracle.gamma_apply(state, i), j, adjoint=True)
    result = dict(forward)
    add_scaled(result, backward, -1.0)
    if i == j:
        add_scaled(result, state, -1.0)
    deviation = state_norm(result)

    phi_count, psi_count = oracle.occupation_counts(state)
    epsilon = max(phi_count, psi_count) / oracle.n_pair_modes
    return deviation, epsilon


def anticommutator_residual(n_modes=6, max_excitations=2):
    """Exact worst-case defect of {a_i, a_j+} = delta_ij and {a_i, a_j} = 0
    on the basis of states with at most `max_excitations` fermions."""
    from itertools import combinations

    basis = [()]
    for count in range(1, max_excitations + 1):
        basis.extend(combinations(range(n_modes), count))
    # Reduced by maxabs, which keeps a NaN norm that Python's max would drop.
    norms = []
    for occ in basis:
        mask = 0
        for mode in occ:
            mask |= 1 << mode
        state = {mask: 1.0 + 0.0j}
        for i in range(n_modes):
            for j in range(n_modes):
                ac = {}
                add_scaled(ac, apply_annihilation(apply_creation(state, j), i), 1.0)
                add_scaled(ac, apply_creation(apply_annihilation(state, i), j), 1.0)
                if i == j:
                    add_scaled(ac, state, -1.0)
                aa = {}
                add_scaled(aa, apply_annihilation(apply_annihilation(state, j), i), 1.0)
                add_scaled(aa, apply_annihilation(apply_annihilation(state, i), j), 1.0)
                norms += [state_norm(ac), state_norm(aa)]
    return maxabs(norms)
