"""Exception types shared across the package, and the input rules that
raise them without loading numpy.

Every bad input, a library argument or a config, its file or a flag,
raises :class:`ParameterError` naming the value; numerical failures
discovered mid-computation derive from ``NumericalError``, so the CLI maps
the two to distinct exit codes.
"""

import sys


def is_int(value) -> bool:
    """The one integer rule: an ``int`` or numpy integer, not a ``bool`` (``True``
    is no count). numpy is looked up, not imported, so no command loads it here."""
    integers = (int, getattr(sys.modules.get("numpy"), "integer", int))
    return isinstance(value, integers) and not isinstance(value, bool)


def check_key_word(name: str, word) -> None:
    """A key word of the random streams, a seed or a stream, is an integer in
    ``[0, 2**64)``; anything else raises :class:`ParameterError` naming it."""
    if not (is_int(word) and 0 <= word <= 2**64 - 1):
        raise ParameterError(f"{name} must be an integer in [0, 2**64), got {word!r}")


class ParameterError(ValueError):
    """A bad input: a parameter outside its range, or a malformed config,
    file or flag."""


class NumericalError(RuntimeError):
    """Base class for numerical failures (diagnostics in the message)."""


class StraddlingResonanceError(NumericalError):
    """Dispersive correction diverges: detuning product Delta*(Delta+alpha) is zero."""


class UnphysicalRegimeError(NumericalError):
    """A closed-form inversion was requested outside its domain of validity."""


class UnphysicalOperatingPointError(NumericalError):
    """Flux bias tunes the effective junction energy through or below zero."""


class AmbiguousLabelingError(NumericalError):
    """Dressed-state labeling failed: best bare-state overlap below threshold."""


class EigensolveError(NumericalError):
    """Dense symmetric eigendecomposition did not converge."""


class DegenerateMixtureError(NumericalError):
    """Two-Gaussian fit collapsed: the two shot sets are indistinguishable."""


class FitConvergenceError(NumericalError):
    """Least-squares fit hit its iteration cap before converging."""


class ThresholdError(NumericalError):
    """No density-intersection threshold exists between the two fitted means."""
