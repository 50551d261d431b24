"""Closed-form two-mode spectrum.

Evaluates the bare mode frequencies/impedances, the renormalized (dressed)
spectrum with its cross-Kerr dispersive shift, and the corrections induced
by junction asymmetry. All inputs and outputs are ordinary frequencies in Hz.

Sign conventions: chi > 0 with interaction -2*chi*n_q*n_r, and the detuning
Delta = omega_q_t - omega_r_t is signed (qubit minus resonator).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import ParameterError, StraddlingResonanceError, UnphysicalRegimeError
from .params import CODATA2018, ModeEnergies

__all__ = [
    "BareModes",
    "SpectrumResult",
    "bare_modes",
    "dressed_spectrum",
    "asymmetric_corrections",
    "invert_chi",
]


@dataclass(frozen=True)
class BareModes:
    """Uncoupled mode frequencies (Hz) and impedances (Ohm)."""

    omega_q: float
    omega_r: float
    z_q: float
    z_r: float


@dataclass(frozen=True)
class SpectrumResult:
    """Dressed observables in Hz.

    ``two_chi`` is the cross-Kerr part alone; ``two_chi_total`` additionally
    contains the asymmetry-induced transverse contribution. The two coincide
    exactly when d_j = 0.
    """

    omega_q_t: float
    omega_r_t: float
    alpha_q: float
    two_chi: float
    g_asymm: float
    two_chi_total: float

    @property
    def delta(self) -> float:
        """Signed qubit-resonator detuning in Hz."""
        return self.omega_q_t - self.omega_r_t


def bare_modes(en: ModeEnergies) -> BareModes:
    """Uncoupled harmonic frequencies sqrt(8*E_Jmode*E_Cmode) and impedances."""
    hbar_over_e2 = CODATA2018.hbar / CODATA2018.electron_charge**2
    return BareModes(
        omega_q=math.sqrt(8.0 * en.e_jq * en.e_cq),
        omega_r=math.sqrt(8.0 * en.e_jr * en.e_cr),
        z_q=hbar_over_e2 * math.sqrt(en.e_cq / en.e_jq),
        z_r=hbar_over_e2 * math.sqrt(en.e_cr / en.e_jr),
    )


def _chi_root(en: ModeEnergies) -> float:
    # shared square-root factor of the dispersive shift and the frequency
    # renormalizations: sqrt(E_CR*E_CQ / (b^2/2 + E_LR/E_J))
    return math.sqrt(en.e_cr * en.e_cq / (en.b**2 / 2.0 + en.e_lr / en.e_j))


def dressed_spectrum(en: ModeEnergies) -> SpectrumResult:
    """Renormalized frequencies, anharmonicity, and dispersive shift.

    Evaluated with bare (not self-consistent) energies; the Fock-basis
    diagonalization in :mod:`quantromon.numeric` is the higher-accuracy path.
    The anharmonicity ``alpha_q = E_CQ`` is first order in E_CQ/omega_q.
    Emits a warning outside the stiff-inductor regime e_lr/e_j > 1.
    """
    if en.e_lr / en.e_j <= 1.0:
        warnings.warn(
            f"e_lr/e_j = {en.e_lr / en.e_j:.3g} <= 1: "
            "perturbative formulas unreliable",
            stacklevel=2,
        )
    modes = bare_modes(en)
    root = _chi_root(en)
    shift = (en.b**2 / 2.0) * root
    omega_q_t = modes.omega_q - en.e_cq - shift
    omega_r_t = modes.omega_r - shift
    chi = (en.b**2 / (2.0 * math.sqrt(2.0))) * root
    two_chi = 2.0 * chi

    if en.d_j == 0.0:
        g_asymm, two_chi_total = 0.0, two_chi
    else:
        g_asymm, two_chi_total = asymmetric_corrections(
            en, chi, omega_q_t - omega_r_t
        )
    return SpectrumResult(
        omega_q_t=omega_q_t,
        omega_r_t=omega_r_t,
        alpha_q=en.e_cq,
        two_chi=two_chi,
        g_asymm=g_asymm,
        two_chi_total=two_chi_total,
    )


def _correction_factor(delta: float, alpha_q: float, e_jsigma: float, d_j: float) -> float:
    denom = delta * (delta + alpha_q)
    if denom == 0.0:
        raise StraddlingResonanceError(
            "Delta*(Delta+alpha_q) = 0: dispersive correction diverges "
            f"(delta={delta!r}, alpha_q={alpha_q!r})"
        )
    return 1.0 + 2.0 * d_j**2 * e_jsigma * alpha_q / denom


def asymmetric_corrections(en: ModeEnergies, chi: float,
                           delta: float) -> tuple[float, float]:
    """Transverse coupling and total dispersive shift from junction asymmetry.

    Parameters
    ----------
    en : ModeEnergies
        Supplies d_j, the summed junction energy e_jq and the anharmonicity
        e_cq.
    chi : float
        Cross-Kerr half-shift (Hz), chi >= 0.
    delta : float
        Signed qubit-resonator detuning (Hz).

    Returns
    -------
    (g_asymm, two_chi_total)
        ``g_asymm = -d_j*sqrt(2*chi*E_Jsigma)``; note E_Jsigma ~ tens of GHz
        enters in the same Hz convention as every other energy. The total
        shift is ``2*chi*(1 + 2*d_j**2*E_Jsigma*alpha/(Delta*(Delta+alpha)))``.
    """
    if chi < 0.0:
        raise ParameterError(f"chi must be >= 0, got {chi!r}")
    g_asymm = -en.d_j * math.sqrt(2.0 * chi * en.e_jq)
    factor = _correction_factor(delta, en.e_cq, en.e_jq, en.d_j)
    return g_asymm, factor * 2.0 * chi


def invert_chi(two_chi_measured: float, delta: float, alpha_q: float,
               e_jsigma: float, d_j: float) -> float:
    """Strip the transverse contribution from a measured total shift.

    Divides the measured ``2*chi_total`` by the asymmetry correction factor,
    leaving the cross-Kerr part. Exact inverse of
    :func:`asymmetric_corrections` wherever both are defined.
    """
    factor = _correction_factor(delta, alpha_q, e_jsigma, d_j)
    if factor <= 0.0:
        raise UnphysicalRegimeError(
            f"correction factor {factor!r} <= 0: measured shift cannot be "
            "inverted in this detuning regime"
        )
    return two_chi_measured / factor
