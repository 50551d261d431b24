"""Exception types shared across the package.

Validation problems (bad inputs, bad configs) derive from ``ValueError``;
numerical failures discovered mid-computation derive from ``NumericalError``
so the CLI can map them to distinct exit codes.
"""

import sys


def is_int(value) -> bool:
    """The one integer rule: an ``int`` or numpy integer, not a ``bool`` (``True``
    is no count). numpy is looked up, not imported, so no command loads it here."""
    integers = (int, getattr(sys.modules.get("numpy"), "integer", int))
    return isinstance(value, integers) and not isinstance(value, bool)


class ConfigError(ValueError):
    """Malformed or incomplete run configuration."""


class ParameterError(ValueError):
    """Circuit or model parameter outside its allowed range."""


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
