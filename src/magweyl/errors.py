"""Exception types shared across the package.

The split mirrors the reporting contract of the command line driver:
``InputError`` subclasses signal bad usage or inconsistent inputs (exit
code 2), ``NumericError`` signals a computation that produced garbage
(exit code 1), and ``ResourceLimitError`` guards deliberately expensive
brute-force evaluations (exit code 2: the configuration asks for too
much).
"""


class InputError(ValueError):
    """Invalid or inconsistent user input."""


class DimensionMismatchError(InputError):
    """Operands live in configuration spaces of different dimensions."""


class OffLatticeError(InputError):
    """A translation vector does not lie on the configuration lattice."""


class GaugeMismatchError(InputError):
    """A vector potential does not generate the requested magnetic field."""


class NumericError(ArithmeticError):
    """Non-finite values encountered during evaluation."""


class ResourceLimitError(RuntimeError):
    """A brute-force quadrature would exceed its configured size cap."""
