"""Exception types shared across the package."""


class AnomixError(Exception):
    """Base class for every package-specific error."""


class ContractViolationError(AnomixError, ValueError):
    """An operation was called with inputs that break its contract."""


class InvalidParameterError(AnomixError, ValueError):
    """A hyperparameter or flag value is outside its legal range."""


class UnusableDatasetError(AnomixError, ValueError):
    """The dataset lacks the pools or labels training requires."""


class DatasetError(AnomixError, ValueError):
    """A dataset file or transformation is malformed."""


class UndefinedMetricError(AnomixError, ValueError):
    """A ranking metric is undefined for the given label mix."""


class TrainingDivergedError(AnomixError, RuntimeError):
    """A gradient, loss, or parameter became non-finite during training."""


class CorruptArtifactError(AnomixError, ValueError):
    """A model file is truncated, mis-versioned, or fails validation."""
