"""Named descriptor registry: canonical automata ready for the CLI and tests.

Transition matrices are recovered from the closed forms by exact Fourier
inversion, so each named descriptor is the literal neighborhood realization
of its wave-vector operator.
"""

from functools import lru_cache

from . import dirac as dirac_mod
from . import weyl as weyl_mod
from .automaton import (
    AutomatonDescriptor,
    IsotropyGroup,
    check_covariance,
    check_unitarity_conditions,
    extract_transition_matrices,
)
from .cayley import IDENTITY_LABEL, build_presentation, inverse_label
from .pauli import ID2, SIGMA_X, SIGMA_Y, SIGMA_Z, maxabs

WEYL_NAMES = tuple(weyl_mod.named_variants().keys())
# Each Dirac builtin couples the chiral variant it maps to.
_DIRAC_BASES = {"dirac-1d": "weyl-1d", "dirac-2d": "weyl-2d", "dirac-3d": "bcc-a-plus"}
DIRAC_NAMES = tuple(_DIRAC_BASES)


def _isotropy_group(presentation, plus_maps, unitaries):
    """The checked group of permutations of S_+ labels, each extended to all
    signed labels and paired with its spinor unitary."""
    elements = []
    for mapping, unitary in zip(plus_maps, unitaries):
        perm = {}
        for src, dst in mapping.items():
            perm[src] = dst
            perm[inverse_label(src)] = inverse_label(dst)
        elements.append((perm, unitary))
    group = IsotropyGroup(elements=tuple(elements))
    group.check_against(presentation, internal_dim=2)  # spinor representations
    return group


def binary_rotation_group(presentation):
    """Order-4 group of binary rotations about the coordinate axes.

    Spatial action on the four body-diagonal generators paired with the
    spinor representation {I, i sigma_x, i sigma_y, i sigma_z}.
    """
    identity = {g.label: g.label for g in presentation.generators_plus}
    rot_x = {"h1": "h2", "h2": "h1", "h3": "h4", "h4": "h3"}
    rot_y = {"h1": "h3", "h3": "h1", "h2": "h4", "h4": "h2"}
    rot_z = {"h1": "h4", "h4": "h1", "h2": "h3", "h3": "h2"}
    return _isotropy_group(presentation, (identity, rot_x, rot_y, rot_z),
                           (ID2, 1j * SIGMA_X, 1j * SIGMA_Y, 1j * SIGMA_Z))


def swap_group(presentation):
    """Order-2 group exchanging the two square-lattice generators,
    represented by the spin rotation by pi about the x axis."""
    identity = {"h1": "h1", "h2": "h2"}
    swap = {"h1": "h2", "h2": "h1"}
    return _isotropy_group(presentation, (identity, swap), (ID2, -1j * SIGMA_X))


def _isotropy_for(variant, presentation):
    if variant.dimension == 3:
        return binary_rotation_group(presentation)
    if variant.dimension == 2:
        return swap_group(presentation)
    return None


@lru_cache(maxsize=None)
def weyl_descriptor(variant):
    """Neighborhood descriptor of a chiral variant, with its isotropy group."""
    presentation = build_presentation(variant.presentation_kind)
    rule = extract_transition_matrices(
        lambda k: weyl_mod.weyl_matrix(variant, k),
        presentation,
        presentation.signed_labels(),
    )
    return AutomatonDescriptor(
        presentation=presentation,
        rule=rule,
        isotropy=_isotropy_for(variant, presentation),
        name=variant.name,
    )


@lru_cache(maxsize=None)
def dirac_descriptor(dd):
    """Neighborhood descriptor of the mass-coupled automaton."""
    presentation = build_presentation(dd.weyl.presentation_kind)
    support = tuple(presentation.signed_labels()) + (IDENTITY_LABEL,)
    rule = extract_transition_matrices(
        lambda k: dirac_mod.dirac_matrix(dd, k),
        presentation,
        support,
    )
    name = f"dirac-{dd.weyl.dimension}d(m={dd.mass})"
    return AutomatonDescriptor(presentation=presentation, rule=rule, name=name)


def builtin_variant(name, theta=0.0):
    """The chiral variant of a registry name: its own, or the one a Dirac builtin couples."""
    return weyl_mod.variant_by_name(_DIRAC_BASES.get(name, name), theta=theta)


def build_descriptor(name, mass=None, theta=0.0):
    """Descriptor for a registry name ('weyl-1d', 'bcc-a-plus', 'dirac-3d', ...)."""
    if name in WEYL_NAMES:
        if mass is not None:
            raise ValueError("mass applies to dirac descriptors only")
        return weyl_descriptor(builtin_variant(name, theta))
    if name in DIRAC_NAMES:
        m = 0.1 if mass is None else float(mass)
        return dirac_descriptor(dirac_mod.DiracDescriptor(builtin_variant(name, theta), m))
    raise ValueError(
        f"unknown descriptor {name!r}; choose from {sorted(WEYL_NAMES + DIRAC_NAMES)}"
    )


def builtin_names():
    return WEYL_NAMES + DIRAC_NAMES


def validate_descriptor(descriptor, tolerance=1e-12):
    """Unitarity (and covariance, when an isotropy group is present) report."""
    unit = check_unitarity_conditions(descriptor.rule, descriptor.presentation)
    report = {"name": descriptor.name, "unitarity": unit, "tolerance": tolerance}
    worst = unit["max_residual"]
    if descriptor.isotropy is not None:
        report["covariance"] = check_covariance(descriptor)
        worst = maxabs([worst, report["covariance"]["max_residual"]])
    report["max_residual"] = worst
    report["passed"] = bool(worst <= tolerance)
    return report
