"""Exception types shared across the package."""


class PartitionOTError(Exception):
    """Base class for all library errors."""


class NotDownSetError(PartitionOTError):
    """Index support or cell set has a hole below an occupied site."""


class NotMonotoneError(PartitionOTError):
    """An entry increases along some axis."""


class NonPositiveEntryError(PartitionOTError):
    """An entry is missing, zero, or negative."""


class InstanceTooLargeError(PartitionOTError):
    """Requested instance exceeds a configured size guard."""


class EnumerationTooLargeError(InstanceTooLargeError):
    """Partition enumeration exceeds its max-cells guard."""


class SizeMismatchError(PartitionOTError):
    """Permutation size does not match the diagram dimension."""


class DimensionMismatchError(PartitionOTError):
    """Measures live in spaces of different dimension."""


class NotSquareError(PartitionOTError):
    """A cost matrix needs sides of one length."""


class NonIntegerCostsError(PartitionOTError):
    """Operation needs an exact integer-valued cost kind."""


class ShapeMismatchError(PartitionOTError):
    """Operands have incompatible shapes (different m, n, or index ranges)."""
