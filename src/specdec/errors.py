"""Exception types shared across the package."""


class SpecDecError(Exception):
    """Base class for all package errors."""


class DimensionError(SpecDecError):
    """Operand shapes are incompatible."""


class NumericError(SpecDecError):
    """Non-finite values where finite math is required."""


class ContractError(SpecDecError):
    """A caller violated an API precondition."""


class CapacityError(SpecDecError):
    """Sequence would exceed the model's maximum context length."""


class CheckpointFormatError(SpecDecError):
    """Checkpoint file is malformed, truncated, or inconsistent."""


class ConfigError(SpecDecError):
    """Configuration file or flag value is invalid."""


class TrainingError(SpecDecError):
    """Training diverged or was otherwise unable to proceed."""
