"""Error taxonomy shared by every module.

The CLI maps these onto process exit codes: configuration and input problems
are exit 1, numeric/runtime failures are exit 2, and a broken internal
guarantee (a frozen weight changing under us) is exit 3.
"""


class MmadaptError(Exception):
    """Base class for all package errors."""


class DimensionError(MmadaptError, ValueError):
    """Operand shapes are incompatible; message names both shapes."""


class DomainError(MmadaptError, ValueError):
    """A value left an operation's mathematical domain (e.g. log of <= 0)."""


class TapeStateError(MmadaptError, RuntimeError):
    """Backward requested on a consumed tape, or on an unrecorded tensor."""


class TokenError(MmadaptError, IndexError):
    """A token id fell outside the vocabulary."""


class LengthError(MmadaptError, ValueError):
    """A sequence exceeded the backbone's maximum length."""


class ConfigError(MmadaptError, ValueError):
    """A config value violates its documented constraint."""


class InputError(MmadaptError, ValueError):
    """A dataset file, manifest record, or feature matrix failed validation."""


class CheckpointError(MmadaptError, ValueError):
    """A serialized artifact is malformed or failed its checksum."""


class NumericError(MmadaptError, RuntimeError):
    """A NaN/Inf surfaced where finite values are guaranteed."""


class FrozenViolation(MmadaptError, RuntimeError):
    """Frozen backbone weights drifted; aborting is the only safe response."""


class WorkerError(MmadaptError, RuntimeError):
    """A worker process died before it returned its task's result."""
