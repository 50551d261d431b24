"""Circuit parameters and the energy scales derived from them.

Unit conventions used throughout the package:

* every energy is stored as an ordinary frequency in Hz (that is, E/h),
* the flux quantum entering inductive energies is the reduced one
  (hbar/2e); the conventional h/2e is off by (2*pi)**2 in E = phi0**2/L,
* angular frequencies (2*pi*f) appear only inside coherence-time formulas
  and never cross a module boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ParameterError

__all__ = [
    "PhysicalConstants",
    "CODATA2018",
    "CircuitParams",
    "ModeEnergies",
    "ValidationReport",
    "derive_energies",
    "validate",
]


@dataclass(frozen=True)
class PhysicalConstants:
    """CODATA-2018 values (SI). Fixed by definition, never user-configurable."""

    planck_h: float = field(init=False, default=6.62607015e-34)          # J s (exact)
    electron_charge: float = field(init=False, default=1.602176634e-19)  # C (exact)

    @property
    def hbar(self) -> float:
        return self.planck_h / (2.0 * math.pi)

    @property
    def reduced_flux_quantum(self) -> float:
        """hbar/2e in Wb."""
        return self.hbar / (2.0 * self.electron_charge)


CODATA2018 = PhysicalConstants()


@dataclass(frozen=True)
class CircuitParams:
    """Raw lumped-element values. A plain record; see :func:`validate`.

    Attributes
    ----------
    l_j : float
        Single-junction Josephson inductance in H.
    c_j : float
        Junction-shunt capacitance in F.
    l_r : float
        Total linear inductance in H.
    c_r : float
        Interdigital capacitance in F.
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


@dataclass(frozen=True)
class ModeEnergies:
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


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]
    warnings: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _violations(params: CircuitParams) -> list[str]:
    """Every range violation of ``params``, each naming its parameter."""
    violations = []
    for name in ("l_j", "c_j", "l_r", "c_r"):
        value = getattr(params, name)
        if not (value > 0.0) or not math.isfinite(value):
            violations.append(f"{name} must be > 0, got {value!r}")
    if not (0.0 <= params.b <= 1.0):
        violations.append(f"b out of [0, 1]: {params.b!r}")
    if not (abs(params.d_j) < 1.0):
        violations.append(f"d_j out of (-1, 1): {params.d_j!r}")
    return violations


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
    violations = _violations(params)
    if violations:
        raise ParameterError("; ".join(violations))

    h = CODATA2018.planck_h
    e = CODATA2018.electron_charge
    phi0bar = CODATA2018.reduced_flux_quantum

    return ModeEnergies.from_scales(
        e_j=_energy("l_j", params.l_j, phi0bar**2, params.l_j * h),
        e_lr=_energy("l_r", params.l_r, phi0bar**2, params.l_r * h),
        e_cq=_energy("c_j", params.c_j, e**2, 4.0 * params.c_j * h),
        e_cr=_energy("c_r", params.c_r, e**2, 2.0 * (params.c_r + params.c_j / 2.0) * h),
        b=params.b,
        d_j=params.d_j,
    )


def validate(params: CircuitParams) -> ValidationReport:
    """Report-only check of parameter invariants and regime assumptions."""
    violations = _violations(params)
    warnings: list[str] = []

    if not violations:
        try:
            en = derive_energies(params)
        except ParameterError as exc:
            return ValidationReport(violations=(str(exc),), warnings=())
        if en.e_lr / en.e_j <= 1.0:
            warnings.append(
                "E_LR >> E_J regime violated "
                f"(e_lr/e_j = {en.e_lr / en.e_j:.3g}); "
                "perturbative formulas unreliable"
            )
        if params.b == 1.0:
            warnings.append(
                "b = 1: constraint reduction assumes 0 < b < 1; "
                "values taken from the b -> 1 limit"
            )

    return ValidationReport(violations=tuple(violations), warnings=tuple(warnings))
