"""Exception types shared across the package, and the input rules that
raise them without loading numpy.

A record that checks its fields is a ``typing.NamedTuple`` class under
:func:`checked`: its ``_check`` runs on construction, ``_make`` and
``_replace`` alike.

Every bad input, a library argument or a config, its file or a flag,
raises :class:`ParameterError` naming the value, and so does every file or
stream that cannot be read or written (:func:`io_fault`); numerical
failures discovered mid-computation derive from ``NumericalError``, so the
CLI maps the two to distinct exit codes.
"""

import contextlib
import sys


def is_int(value) -> bool:
    """The one integer rule: an ``int`` or numpy integer, not a ``bool`` (``True``
    is no count). numpy is looked up, not imported, so no command loads it here."""
    integers = (int, getattr(sys.modules.get("numpy"), "integer", int))
    return isinstance(value, integers) and not isinstance(value, bool)


def checked(cls):
    """Make the NamedTuple class ``cls`` run its ``_check`` method on every
    record built: by the constructor, ``_make`` and so ``_replace``.

    ``_check`` raises :class:`ParameterError` naming a bad field, or returns
    the fields to store (the record itself when it converts none).
    """
    build = cls.__new__  # the NamedTuple's own, which stores what it is given

    def __new__(cls, *args, **kwargs):
        return build(cls, *build(cls, *args, **kwargs)._check())

    cls.__new__ = __new__
    cls._make = classmethod(lambda cls, iterable: cls(*iterable))
    return cls


def check_key_word(name: str, word) -> None:
    """A key word of the random streams, a seed or a stream, is an integer in
    ``[0, 2**64)``; anything else raises :class:`ParameterError` naming it."""
    if not (is_int(word) and 0 <= word <= 2**64 - 1):
        raise ParameterError(f"{name} must be an integer in [0, 2**64), got {word!r}")


@contextlib.contextmanager
def io_fault(verb: str, target: str):
    """The one rule for an I/O fault: an ``OSError`` raised inside becomes
    :class:`ParameterError` ``cannot <verb> <target>: <reason>``, such as
    ``cannot write stdout: Broken pipe``."""
    try:
        yield
    except OSError as exc:
        raise ParameterError(f"cannot {verb} {target}: {exc.strerror or exc}") from exc


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
