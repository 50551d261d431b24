"""Circuit parameters, the physical constants and energy scales derived
from them, and the readout operating point.

Unit conventions used throughout the package:

* every energy is stored as an ordinary frequency in Hz (that is, E/h),
* the flux quantum entering inductive energies is the reduced one
  (hbar/2e); the conventional h/2e is off by (2*pi)**2 in E = phi0**2/L,
* angular frequencies (2*pi*f) appear only inside coherence-time formulas
  and never cross a module boundary.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import ParameterError, checked

__all__ = [
    "PLANCK_H",
    "ELECTRON_CHARGE",
    "HBAR",
    "REDUCED_FLUX_QUANTUM",
    "CircuitParams",
    "ModeEnergies",
    "ReadoutParams",
    "derive_energies",
    "regime_warnings",
]


# h and e are exact in the SI (CODATA 2018); hbar and hbar/2e follow from
# them in double precision. None is user-configurable.
PLANCK_H = 6.62607015e-34                              # J s
ELECTRON_CHARGE = 1.602176634e-19                      # C
HBAR = PLANCK_H / (2.0 * math.pi)                      # J s
REDUCED_FLUX_QUANTUM = HBAR / (2.0 * ELECTRON_CHARGE)  # hbar/2e in Wb


class CircuitParams(NamedTuple):
    """Raw lumped-element values. A plain record; :func:`derive_energies`
    range-checks it.

    Attributes
    ----------
    l_j : float
        Single-junction Josephson inductance in H, finite and > 0.
    c_j : float
        Junction-shunt capacitance in F, finite and > 0.
    l_r : float
        Total linear inductance in H, finite and > 0.
    c_r : float
        Interdigital capacitance in F, finite and > 0.
    b : float
        Fraction of the linear inductor enclosed in the qubit loop, in [0, 1].
    d_j : float
        Junction asymmetry (E_J1 - E_J2)/(E_J1 + E_J2), in (-1, 1).
    """

    l_j: float
    c_j: float
    l_r: float
    c_r: float
    b: float
    d_j: float = 0.0


class ModeEnergies(NamedTuple):
    """Derived energy scales, all expressed as frequencies in Hz.

    ``e_jq`` is the qubit-mode inductive energy (twice the single-junction
    energy, equal to the summed junction energy E_Jsigma) and ``e_jr`` the
    resonator-mode inductive energy ``e_lr + (b**2/2) * e_j``.
    """

    e_j: float
    e_lr: float
    e_cq: float
    e_cr: float
    e_jq: float
    e_jr: float
    b: float
    d_j: float

    @classmethod
    def from_scales(cls, e_j: float, e_lr: float, e_cq: float, e_cr: float,
                    b: float, d_j: float) -> ModeEnergies:
        """Mode energies whose ``e_jq`` and ``e_jr`` are derived from ``e_j``."""
        return cls(e_j=e_j, e_lr=e_lr, e_cq=e_cq, e_cr=e_cr, e_jq=2.0 * e_j,
                   e_jr=e_lr + (b**2 / 2.0) * e_j, b=b, d_j=d_j)


def _energy(name: str, value: float, numerator: float, denominator: float) -> float:
    """``numerator / denominator`` in Hz, derived from parameter ``name``.

    An element value that is in range can still be so extreme that the
    denominator underflows to 0.0, or the energy to 0.0; either raises a
    :class:`ParameterError` naming the parameter.
    """
    energy = numerator / denominator if denominator > 0.0 else math.inf
    if not 0.0 < energy < math.inf:
        raise ParameterError(
            f"{name} = {value!r} gives a derived energy of {energy!r} Hz; "
            "it must be finite and > 0"
        )
    return energy


def derive_energies(params: CircuitParams) -> ModeEnergies:
    """Compute all mode energy scales (in Hz) from lumped-element values.

    Pure function; rejects out-of-range inputs with a :class:`ParameterError`
    that names every offending parameter, and an element value whose energy
    is not finite and > 0 with one that names that value.
    """
    violations = []
    for name in ("l_j", "c_j", "l_r", "c_r"):
        value = getattr(params, name)
        if not (value > 0.0) or not math.isfinite(value):
            violations.append(f"{name} must be > 0, got {value!r}")
    if not (0.0 <= params.b <= 1.0):
        violations.append(f"b out of [0, 1]: {params.b!r}")
    if not (abs(params.d_j) < 1.0):
        violations.append(f"d_j out of (-1, 1): {params.d_j!r}")
    if violations:
        raise ParameterError("; ".join(violations))

    h, e, phi0bar = PLANCK_H, ELECTRON_CHARGE, REDUCED_FLUX_QUANTUM
    return ModeEnergies.from_scales(
        e_j=_energy("l_j", params.l_j, phi0bar**2, params.l_j * h),
        e_lr=_energy("l_r", params.l_r, phi0bar**2, params.l_r * h),
        e_cq=_energy("c_j", params.c_j, e**2, 4.0 * params.c_j * h),
        e_cr=_energy("c_r", params.c_r, e**2, 2.0 * (params.c_r + params.c_j / 2.0) * h),
        b=params.b,
        d_j=params.d_j,
    )


def regime_warnings(en: ModeEnergies) -> tuple[str, ...]:
    """The closed form's regime assumptions that ``en`` breaks, one message each.

    The resonator mode is treated as harmonic, which needs the stiff linear
    inductor ``e_lr/e_j > 1``; the constraint reduction assumes ``0 < b < 1``.
    """
    messages = []
    if en.e_lr / en.e_j <= 1.0:
        messages.append(
            "E_LR >> E_J regime violated "
            f"(e_lr/e_j = {en.e_lr / en.e_j:.3g}); "
            "perturbative formulas unreliable"
        )
    if en.b == 1.0:
        messages.append(
            "b = 1: constraint reduction assumes 0 < b < 1; "
            "values taken from the b -> 1 limit"
        )
    return tuple(messages)


@checked
class ReadoutParams(NamedTuple):
    """Readout operating point.

    ``omega_r`` is the resonator frequency with the qubit in state 0; state 1
    pulls it down by ``two_chi``. ``readout_freq`` defaults to the midpoint of
    the two pulled frequencies. ``noise_scale`` is the calibrated
    SNR-per-sqrt(tau) factor described in the :mod:`quantromon.readout`
    docstring; ``thermal_pop`` is the probability that a nominally-ground
    shot starts excited. Every value must be finite; only ``readout_freq`` may be None.
    The checks run again on ``_replace`` (:func:`~quantromon.errors.checked`).
    """

    omega_r: float
    two_chi: float
    kappa_ext: float
    kappa_int: float
    nbar: float
    tau: float
    t1: float
    readout_freq: float | None = None
    noise_scale: float = 2.05
    thermal_pop: float = 0.0

    def _check(self):
        for name, value in zip(self._fields, self):
            if not (value is None and name == "readout_freq" or math.isfinite(value)):
                raise ParameterError(f"{name} must be finite, got {value!r}")
        if self.kappa_ext < 0.0 or self.kappa_int < 0.0:
            raise ParameterError("kappa_ext and kappa_int must be >= 0")
        if self.kappa_ext + self.kappa_int <= 0.0:
            raise ParameterError("kappa_ext + kappa_int must be > 0")
        if not (self.tau > 0.0):
            raise ParameterError(f"tau must be > 0, got {self.tau!r}")
        if not (self.nbar > 0.0):
            raise ParameterError(f"nbar must be > 0, got {self.nbar!r}")
        if not (self.t1 > 0.0):
            raise ParameterError(f"t1 must be > 0, got {self.t1!r}")
        if not (0.0 <= self.thermal_pop < 1.0):
            raise ParameterError(f"thermal_pop must lie in [0, 1), got {self.thermal_pop!r}")
        return self
