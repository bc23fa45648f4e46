"""Quantum cellular automata on Abelian Cayley graphs.

Chiral (Weyl-type), mass-coupled (Dirac-type) and two-field electromagnetic
lattice dynamics: closed-form step operators, dispersion and group velocity,
interpolating Hamiltonians and their small wave-vector limits, exact
spectral evolution with a direct-sum oracle, coset tiling, and an exact
few-mode Fock oracle for the pair-operator statistics.
"""

from .automaton import (
    AutomatonDescriptor,
    IsotropyGroup,
    TransitionRule,
    assemble,
    check_covariance,
    check_unitarity_conditions,
    extract_transition_matrices,
    spectrum,
)
from .cayley import (
    BrillouinZone,
    CayleyPresentation,
    Generator,
    TilingMap,
    build_presentation,
    make_tiling,
)
from .catalog import build_descriptor, builtin_names, validate_descriptor
from .dirac import (
    DiracDescriptor,
    coupling_unitarity_residual,
    dirac_dispersion,
    dirac_interpolating_hamiltonian,
    dirac_matrix,
    dirac_small_k_hamiltonian,
    probe_setup,
    uniqueness_probe,
)
from .evolution import (
    FieldState,
    LatticeSpec,
    WavePacketSpec,
    apply_tiling,
    make_packet,
    step_direct,
    tile_descriptor,
)
from .fock import FockOracle, fock_commutator_deviation
from .maxwell import (
    angular_momentum_identity_residual,
    bilinear_G,
    mode_maxwell_residual,
    polarization_basis,
    transverse_project,
)
from .weyl import (
    DispersionSample,
    WeylVariant,
    dispersion,
    interpolating_hamiltonian,
    small_k_hamiltonian,
    weyl_matrix,
)

__version__ = "0.1.0"
