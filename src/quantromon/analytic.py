"""Closed-form two-mode spectrum and steady-state readout reflection.

Evaluates the bare mode frequencies/impedances, the renormalized (dressed)
spectrum with its cross-Kerr dispersive shift, the corrections induced by
junction asymmetry, and the resonator's reflection S11 with the phase
separation and pointer means it gives. All inputs and outputs are ordinary
frequencies in Hz. The module imports no numpy.

Sign conventions: chi > 0 with interaction -2*chi*n_q*n_r, and the detuning
Delta = omega_q_t - omega_r_t is signed (qubit minus resonator).
"""

from __future__ import annotations

import cmath
import math
import warnings
from typing import NamedTuple

from .errors import ParameterError, StraddlingResonanceError, UnphysicalRegimeError
from .params import ELECTRON_CHARGE, HBAR, ModeEnergies, ReadoutParams, regime_warnings

__all__ = [
    "BareModes",
    "SpectrumResult",
    "bare_modes",
    "dressed_spectrum",
    "asymmetric_corrections",
    "invert_chi",
    "reflection_coefficient",
    "phase_separation",
    "pointer_means",
]


class BareModes(NamedTuple):
    """Uncoupled mode frequencies (Hz) and impedances (Ohm)."""

    omega_q: float
    omega_r: float
    z_q: float
    z_r: float


class SpectrumResult(NamedTuple):
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
    hbar_over_e2 = HBAR / ELECTRON_CHARGE**2
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
    Emits a ``UserWarning`` for each message of
    :func:`~quantromon.params.regime_warnings`.
    """
    for message in regime_warnings(en):
        warnings.warn(message, stacklevel=2)
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


def reflection_coefficient(omega: float, omega_r_pulled: float,
                           kappa_ext: float, kappa_int: float) -> complex:
    """One-port reflection S11 off a resonator at its pulled frequency.

    S11 = (i(w - w_r) + (k_int - k_ext)/2) / (i(w - w_r) + (k_int + k_ext)/2),
    so |S11| <= 1, with full phase wrap through resonance when over-coupled.
    """
    detuning = omega - omega_r_pulled
    return ((1j * detuning + (kappa_int - kappa_ext) / 2.0)
            / (1j * detuning + (kappa_int + kappa_ext) / 2.0))


def phase_separation(two_chi: float, kappa_ext: float, kappa_int: float) -> float:
    """Reflected-phase separation (degrees) between the two qubit states.

    Readout is taken at the midpoint of the two pulled resonator frequencies,
    so the detunings are +-chi. Over-coupled resonators wrap the phase through
    +-180 deg at resonance; the separation then follows the continuous branch,
    i.e. 360 deg minus the principal-branch gap. The separation does not
    depend on the sign of the pull, so a negative ``two_chi`` gives the
    value of its magnitude.
    """
    if kappa_ext + kappa_int <= 0.0:
        raise ParameterError("total linewidth must be > 0")
    chi = abs(two_chi) / 2.0
    s_plus = reflection_coefficient(chi, 0.0, kappa_ext, kappa_int)
    # principal-branch gap, symmetric; cmath.phase is libm's atan2, which can
    # differ from np.angle by one ulp
    gap = 2.0 * math.degrees(cmath.phase(s_plus))
    if kappa_ext > kappa_int:
        return 360.0 - gap
    return gap


def pointer_means(p: ReadoutParams) -> tuple[float, float]:
    """1-D pointer means (a.u.) for qubit states 0 and 1.

    Complex reflection amplitudes sqrt(nbar)*S11(state), projected on the
    line through the two means, with the origin at their midpoint.
    """
    f_ro = p.readout_freq if p.readout_freq is not None else p.omega_r - p.two_chi / 2.0
    r0 = reflection_coefficient(f_ro, p.omega_r, p.kappa_ext, p.kappa_int)
    r1 = reflection_coefficient(f_ro, p.omega_r - p.two_chi, p.kappa_ext, p.kappa_int)
    separation = math.sqrt(p.nbar) * abs(r1 - r0)
    return -separation / 2.0, separation / 2.0
