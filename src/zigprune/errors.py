"""Exception types shared across the package."""


class ZigPruneError(Exception):
    """Base class for all package errors.

    `stage` names the pipeline stage that raised it, when a multi-stage
    command knows it; the CLI tags its message with that stage.
    """

    stage: str | None = None


class ShapeError(ZigPruneError, ValueError):
    """An argument's shape is incompatible; the message names the offending dimension."""


class ParameterError(ZigPruneError, ValueError):
    """A parameter value violates its constraints (e.g. a nonpositive BN scale)."""


class StateError(ZigPruneError, RuntimeError):
    """An operation was called in the wrong order (e.g. backward before forward)."""


class UnsupportedStructureError(ZigPruneError, ValueError):
    """The model contains a layer kind the group partitioner does not cover."""


class InvalidModelError(ZigPruneError, ValueError):
    """The layer list cannot form a valid model (shape chain, branch mismatch, ...)."""


class NumericalFailureError(ZigPruneError, RuntimeError):
    """Non-finite values reached the optimizer; carries the iteration counter."""

    def __init__(self, message, iteration=None):
        super().__init__(message)
        self.iteration = iteration


class InvariantError(ZigPruneError, RuntimeError):
    """An internal algorithmic invariant was violated; indicates a bug."""


class DegenerateLayerError(ZigPruneError, ValueError):
    """Pruning would reduce a layer to zero width; suggests the keep-one policy."""


class StructuralError(ZigPruneError, RuntimeError):
    """Two models that should be comparable are not (e.g. output shapes differ)."""


class EquivalenceError(ZigPruneError, RuntimeError):
    """The slim model's outputs deviate from the full model's beyond the one-shot bound."""


class FormatError(ZigPruneError, ValueError):
    """A binary or text file does not match its expected format; carries a byte offset."""

    def __init__(self, message, offset=None):
        super().__init__(message)
        self.offset = offset


class TargetError(ZigPruneError, ValueError):
    """Class targets do not fit the model: not integers, or outside [0, output width)."""


class ConfigError(ZigPruneError, ValueError):
    """An experiment configuration is missing keys or has out-of-range values."""
