"""Exception types raised by the lattice automaton toolkit."""


class QcaError(Exception):
    """Base class for all toolkit-specific errors."""


class SupportMismatchError(QcaError):
    """A closed-form operator is not supported on the stated neighborhood."""


class BranchPointError(QcaError):
    """Hermitian generator undefined: eigenphase at the log branch point."""


class ZoneLeakError(QcaError):
    """Wave-packet envelope is not negligible at the wave-vector zone edge."""


class DescriptorError(QcaError):
    """A descriptor document lacks a key or holds a value of the wrong type."""


class PacketBoundaryError(QcaError):
    """Packet mass too close to the periodic wrap seam for unwrapped means."""
