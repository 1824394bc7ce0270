"""Exception hierarchy shared by all stylerec modules.

Each class owns the ``kind`` and ``exit_code`` that the CLI reports for
it: input problems exit 1, configuration/contract problems exit 2,
numeric failures exit 3.
"""


class StyleRecError(Exception):
    """Base class for all errors raised by this package."""

    kind, exit_code = "internal", 2


class ShapeError(StyleRecError):
    """Operands have incompatible dimensions."""

    kind, exit_code = "shape-error", 2


class MaskError(StyleRecError):
    """A softmax/attention slice has no valid (unmasked) entry."""

    kind, exit_code = "mask-error", 2


class NumericError(StyleRecError):
    """Non-finite values or zero-norm vectors."""

    kind, exit_code = "numeric-error", 3


class ContractError(StyleRecError):
    """An API precondition was violated (e.g. non-scalar loss)."""

    kind, exit_code = "contract-error", 2


class InputError(StyleRecError):
    """User-supplied data is malformed (bad session lines, bad ids)."""

    kind, exit_code = "input-error", 1


class ConfigError(StyleRecError):
    """A configuration value is out of its legal range."""

    kind, exit_code = "config-error", 2


class FormatError(StyleRecError):
    """A binary file is corrupt or has the wrong magic/version."""

    kind, exit_code = "format-error", 1
