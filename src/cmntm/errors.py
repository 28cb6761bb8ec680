"""Exception types shared across the package."""


class CmntmError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(CmntmError):
    """An operation received operands with incompatible shapes."""

    def __init__(self, op: str, detail: str):
        super().__init__(f"{op}: {detail}")
        self.op = op


class DomainError(CmntmError):
    """An operation received values outside its documented domain."""


class DegenerateInputError(CmntmError):
    """Input is structurally valid but numerically degenerate (e.g. zero norm)."""


class ConfigError(CmntmError):
    """A configuration file or mapping failed validation."""


class DatasetFormatError(CmntmError):
    """A dataset file could not be read."""

    def __init__(self, path: str, detail: str):
        super().__init__(f"{path}: {detail}")


class CheckpointError(CmntmError):
    """A checkpoint file is malformed or fails its integrity checks."""


class TrainingDivergedError(CmntmError):
    """Training produced a non-finite loss; carries diagnostic context."""


class TimingMonotonicityError(CmntmError):
    """Measured per-transaction time decreased with added memory stages."""
