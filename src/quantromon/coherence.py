"""T1 budgets: dielectric loss, asymmetry-induced Purcell decay, and the
equivalent-transmon comparison.

kappa, g, and Delta are all supplied as ordinary frequencies in Hz; the
conversion to angular frequency happens internally so lifetimes come out in
seconds. The Purcell lifetime is Delta**2/(kappa*g**2) in angular-consistent
units, i.e. the inverse of the decay rate kappa*g**2/Delta**2. A vanishing
coupling returns ``math.inf`` ("no Purcell channel").
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .analytic import SpectrumResult
from .errors import ParameterError, UnphysicalRegimeError, checked

__all__ = [
    "CoherenceConfig",
    "CoherenceReport",
    "t1_dielectric",
    "t1_purcell",
    "combine",
    "transmon_equivalent_g",
    "coherence_report",
]

_TWO_PI = 2.0 * math.pi


@checked
class CoherenceConfig(NamedTuple):
    """Dielectric quality factor and readout linewidth (kappa/2pi, Hz).

    ``q_diel`` must be > 0 and may be ``inf``: no dielectric loss, so
    ``t1_diel`` is infinite and ``t1_model`` is the Purcell lifetime alone.
    ``kappa`` must be finite and > 0. The checks run again on ``_replace``
    (:func:`~quantromon.errors.checked`).
    """

    q_diel: float
    kappa: float

    def _check(self):
        if not (self.q_diel > 0.0):
            raise ParameterError(f"q_diel must be > 0, got {self.q_diel!r}")
        if not (0.0 < self.kappa < math.inf):
            raise ParameterError(f"kappa must be finite and > 0, got {self.kappa!r}")
        return self


class CoherenceReport(NamedTuple):
    """Lifetimes in seconds; 1/t1_model = 1/t1_diel + 1/t1_asymm."""

    t1_diel: float
    t1_asymm: float
    t1_model: float
    t1_transmon_purcell: float


def t1_dielectric(omega_q: float, q_diel: float) -> float:
    """Dielectric-loss lifetime Q/(2*pi*f) in seconds."""
    if not (omega_q > 0.0) or not (q_diel > 0.0):
        raise ParameterError(
            f"omega_q and q_diel must be > 0, got {omega_q!r}, {q_diel!r}"
        )
    return q_diel / (_TWO_PI * omega_q)


def t1_purcell(g: float, delta: float, kappa: float) -> float:
    """Purcell lifetime Delta**2/(kappa*g**2), inputs in Hz, output seconds."""
    if delta == 0.0:
        raise ParameterError("delta must be nonzero for a Purcell estimate")
    if not (kappa > 0.0):
        raise ParameterError(f"kappa must be > 0, got {kappa!r}")
    if g == 0.0:
        return math.inf
    return delta**2 / (_TWO_PI * kappa * g**2)


def combine(contributions: list[float]) -> float:
    """Harmonic combination of lifetimes; infinite channels contribute no rate.

    Rates are accumulated with ``math.fsum`` so the result is exactly
    permutation-invariant.
    """
    if not contributions:
        raise ParameterError("at least one T1 contribution required")
    rates = []
    for t1 in contributions:
        if math.isinf(t1):
            continue
        if not (t1 > 0.0):
            raise ParameterError(f"T1 contributions must be > 0, got {t1!r}")
        rates.append(1.0 / t1)
    total = math.fsum(rates)
    return math.inf if total == 0.0 else 1.0 / total


def transmon_equivalent_g(two_chi_target: float, delta: float,
                          alpha_q: float) -> float:
    """Transverse coupling a transmon would need for the same dispersive shift.

    Inverts chi = (g**2/Delta)*(alpha/(Delta+alpha)). Only defined where
    Delta*(Delta+alpha) > 0 for a positive target shift.
    """
    if not (alpha_q > 0.0):
        raise ParameterError(f"alpha_q must be > 0, got {alpha_q!r}")
    chi = two_chi_target / 2.0
    product = delta * (delta + alpha_q)
    g_squared = chi * product / alpha_q
    if product == 0.0 or g_squared <= 0.0:
        raise UnphysicalRegimeError(
            "chi = (g^2/Delta)(alpha/(Delta+alpha)) is not invertible here "
            f"(two_chi={two_chi_target!r}, delta={delta!r}, alpha={alpha_q!r})"
        )
    return math.sqrt(g_squared)


def coherence_report(spec: SpectrumResult, cfg: CoherenceConfig) -> CoherenceReport:
    """Full budget at one operating point, including the transmon comparison,
    from its dressed spectrum alone: any :class:`SpectrumResult` serves."""
    t1_diel = t1_dielectric(spec.omega_q_t, cfg.q_diel)
    t1_asymm = t1_purcell(spec.g_asymm, spec.delta, cfg.kappa)
    g_equiv = transmon_equivalent_g(spec.two_chi_total, spec.delta, spec.alpha_q)
    return CoherenceReport(
        t1_diel=t1_diel,
        t1_asymm=t1_asymm,
        t1_model=combine([t1_diel, t1_asymm]),
        t1_transmon_purcell=t1_purcell(g_equiv, spec.delta, cfg.kappa),
    )
