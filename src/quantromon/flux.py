"""Flux tuning of the junction energies and full-pipeline flux sweeps.

Two tunable layouts are modeled: both junctions replaced by (identical)
SQUIDs, so the summed energy scales by |cos(n*pi*a)| with the asymmetry
unchanged, and a single SQUID, where E_Jsigma = E_J1 + E_J2*cos(n*pi*a) and
the asymmetry itself tunes with flux. ``a`` is the SQUID-to-qubit-loop area
ratio and ``n`` the integer number of flux quanta in the qubit loop, an
argument of :func:`tuned_junctions`; fractional flux bias is rejected
rather than extrapolated.

The pipeline works on mode energies, not circuit elements: every function
takes the circuit's zero-flux :class:`~quantromon.params.ModeEnergies`
(from :func:`~quantromon.params.derive_energies`), and tuning replaces only
its ``e_j`` by ``E_Jsigma/2`` and its ``d_j`` by the tuned asymmetry. A
flux point's one record is its :class:`SweepRow`.
"""

from __future__ import annotations

import enum
import math
import warnings
from typing import NamedTuple

from .analytic import dressed_spectrum
from .coherence import CoherenceConfig, coherence_report
from .errors import NumericalError, ParameterError, UnphysicalOperatingPointError, checked, is_int
from .params import ModeEnergies

__all__ = [
    "FluxMode",
    "FluxConfig",
    "SweepRow",
    "tuned_junctions",
    "junction_energies",
    "energies_at_flux",
    "evaluate_flux_point",
    "sweep",
    "fit_one_squid",
    "fit_both_squids_area",
]


class FluxMode(enum.Enum):
    BOTH_SQUIDS = "both_squids"
    ONE_SQUID = "one_squid"
    FIXED = "fixed"


@checked
class FluxConfig(NamedTuple):
    """Zero-flux junction energies (Hz), tuning layout and SQUID area ratio.

    ``mode`` is a :class:`FluxMode` or its config name (``"both_squids"``,
    ``"one_squid"`` or ``"fixed"``), stored as the member.
    Both energies must be finite and >= 0, with a positive sum
    (``e_j2_zero = 0`` models a single junction). The checks and the
    conversion of ``mode`` run again on ``_replace``
    (:func:`~quantromon.errors.checked`). The flux bias is not part of it:
    :func:`tuned_junctions` takes ``n`` as an argument.
    """

    mode: FluxMode
    e_j1_zero: float
    e_j2_zero: float
    area_ratio_a: float = 0.0

    def _check(self):
        try:
            mode = FluxMode(self.mode)
        except ValueError:
            raise ParameterError(f"flux.mode must be one of {[m.value for m in FluxMode]}, "
                                 f"got {self.mode!r}") from None
        for key in ("e_j1_zero", "e_j2_zero"):
            value = getattr(self, key)
            if not (math.isfinite(value) and value >= 0.0):
                raise ParameterError(f"{key} must be a finite number >= 0, got {value!r}")
        if not (self.e_j1_zero + self.e_j2_zero > 0.0):
            raise ParameterError("e_j1_zero + e_j2_zero must be > 0")
        if mode is not FluxMode.FIXED and not (0.0 < self.area_ratio_a < 1.0):
            raise ParameterError(
                f"area_ratio_a must lie in (0, 1) for tunable modes, "
                f"got {self.area_ratio_a!r}"
            )
        return (mode, *self[1:])


def tuned_junctions(cfg: FluxConfig, n: int) -> tuple[float, float]:
    """Summed junction energy E_Jsigma (Hz) and asymmetry d_j at flux bias n,
    an integer by :func:`~quantromon.errors.is_int` with ``|n| <= 2**53``:
    past it not every integer is a float, and the flux phase means nothing."""
    if not is_int(n):
        raise ParameterError(f"flux bias n must be an integer, got {n!r}")
    if not -2**53 <= n <= 2**53:
        raise ParameterError(f"flux bias n must lie in [-2**53, 2**53], got {n!r}")
    e_j1, e_j2 = cfg.e_j1_zero, cfg.e_j2_zero
    phase = n * math.pi * cfg.area_ratio_a
    if cfg.mode is FluxMode.ONE_SQUID:
        e_j2 *= math.cos(phase)
    e_jsigma = e_j1 + e_j2
    if e_jsigma <= 0.0:
        raise UnphysicalOperatingPointError(
            f"E_Jsigma = {e_jsigma:.4g} Hz <= 0 at n = {n}: "
            "SQUID tuned through zero"
        )
    d_j = (e_j1 - e_j2) / e_jsigma
    if cfg.mode is FluxMode.BOTH_SQUIDS:
        # both SQUIDs, assumed identical: common |cos| scaling, asymmetry fixed
        e_jsigma *= abs(math.cos(phase))
        if e_jsigma <= 0.0:
            raise UnphysicalOperatingPointError(
                f"E_Jsigma = 0 at n = {n}: SQUIDs biased at half flux quantum"
            )
    return e_jsigma, d_j


def _split(e_jsigma: float, d_j: float) -> tuple[float, float]:
    """(E_J1, E_J2) of summed energy ``e_jsigma`` and asymmetry ``d_j``."""
    return (1.0 + d_j) / 2.0 * e_jsigma, (1.0 - d_j) / 2.0 * e_jsigma


def junction_energies(en: ModeEnergies) -> tuple[float, float]:
    """Split the zero-flux E_Jsigma = e_jq of ``en`` per its asymmetry d_j."""
    return _split(en.e_jq, en.d_j)


def energies_at_flux(en: ModeEnergies, e_jsigma: float, d_j: float) -> ModeEnergies:
    """``en`` with the junction energy and asymmetry replaced by their tuned values."""
    return ModeEnergies.from_scales(e_j=e_jsigma / 2.0, e_lr=en.e_lr, e_cq=en.e_cq,
                                    e_cr=en.e_cr, b=en.b, d_j=d_j)


class SweepRow(NamedTuple):
    """One flux operating point of the sweep: the tuned junctions, the dressed
    spectrum and the whole coherence budget; ``error`` is set for failed rows."""

    n: int
    e_jsigma: float = math.nan
    d_j: float = math.nan
    omega_q_t: float = math.nan
    delta: float = math.nan
    two_chi_total: float = math.nan
    t1_diel: float = math.nan
    t1_asymm: float = math.nan
    t1_model: float = math.nan
    t1_transmon_purcell: float = math.nan
    error: str | None = None


def evaluate_flux_point(en: ModeEnergies, cfg: FluxConfig, n: int,
                        coherence: CoherenceConfig) -> SweepRow:
    """Tuned junctions -> energies -> dressed spectrum -> coherence budget,
    as the :class:`SweepRow` of bias ``n``."""
    e_jsigma, d_j = tuned_junctions(cfg, n)
    spec = dressed_spectrum(energies_at_flux(en, e_jsigma, d_j))
    return SweepRow(n=n, e_jsigma=e_jsigma, d_j=d_j, omega_q_t=spec.omega_q_t,
                    delta=spec.delta, two_chi_total=spec.two_chi_total,
                    **coherence_report(spec, coherence)._asdict())


def sweep(en: ModeEnergies, cfg: FluxConfig, n_list: list[int],
          coherence: CoherenceConfig) -> list[SweepRow]:
    """Evaluate the full pipeline at each flux bias.

    A numerical or parameter failure at one bias becomes a row with ``error``
    set and the sweep goes on; any other exception propagates. Rows are a
    pure function of the inputs and come back in n_list order.
    """
    rows: list[SweepRow] = []
    for n in n_list:
        try:
            rows.append(evaluate_flux_point(en, cfg, n, coherence))
        except (NumericalError, ParameterError) as exc:
            rows.append(SweepRow(n=n, error=f"{type(exc).__name__}: {exc}"))
    return rows


def _qubit_frequency(en: ModeEnergies, e_jsigma: float) -> float:
    # the searches probe regimes where the closed form would warn; only the
    # monotone map matters here, and omega_q_t does not depend on d_j
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return dressed_spectrum(energies_at_flux(en, e_jsigma, 0.0)).omega_q_t


def _solve_e_jsigma(en: ModeEnergies, f_q_zero: float) -> float:
    """The least E_Jsigma in [1e6, 1e13] Hz whose qubit frequency is not below
    ``f_q_zero``, to the last double: the frequency rises with E_Jsigma, so
    bisect until no double lies between the bracket's ends."""
    lo, hi = 1e6, 1e13
    f_lo, f_hi = _qubit_frequency(en, lo), _qubit_frequency(en, hi)
    if not (f_lo <= f_q_zero <= f_hi):
        raise ParameterError(f"f_q_zero = {f_q_zero!r} Hz is outside the reachable "
                             f"range [{f_lo!r}, {f_hi!r}] Hz")
    if f_lo == f_q_zero:
        return lo
    # invariant: f(lo) < f_q_zero <= f(hi)
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if _qubit_frequency(en, mid) < f_q_zero:
            lo = mid
        else:
            hi = mid
    return hi


_A_STEP = 1e-4  # area-ratio grid step of the fitters' scans
_MAX_ANCHOR = 5000  # above it the grid up to 0.5/anchor_n holds no point


def _scan_area(mode: FluxMode, e_j1: float, e_j2: float, anchor_n: int, cost) -> float:
    """First grid area ratio ``k * 1e-4`` up to ``0.5/anchor_n`` with the least
    ``cost(e_jsigma, d_j)`` at ``anchor_n``, skipping unphysical points."""
    if not (is_int(anchor_n) and 1 <= anchor_n <= _MAX_ANCHOR):
        raise ParameterError(
            f"anchor_n must be an integer in [1, {_MAX_ANCHOR}], got {anchor_n!r}")
    a_max = 0.5 / anchor_n
    best_a, best_cost = None, math.inf
    for a in (k * _A_STEP for k in range(1, int(a_max / _A_STEP) + 1)):
        try:
            tuned = tuned_junctions(FluxConfig(mode, e_j1, e_j2, a), anchor_n)
        except UnphysicalOperatingPointError:
            continue
        c = cost(*tuned)
        if c < best_cost:
            best_a, best_cost = a, c
    if best_a is None:
        raise UnphysicalOperatingPointError(f"no physical area ratio found in (0, {a_max})")
    return best_a


def fit_one_squid(en: ModeEnergies, f_q_zero: float, d_j_zero: float,
                  anchor_n: int, d_j_anchor: float) -> FluxConfig:
    """Reconstruct a one-SQUID flux configuration from measured observables.

    The zero-flux qubit frequency and asymmetry fix the junction split; the
    area ratio is then the grid value (deterministic bounded scan, step
    1e-4) whose asymmetry at ``anchor_n`` is closest to the measured one.
    The anchor is the asymmetry rather than the frequency because near the
    zero crossing the sign of d_j is the sharper observable. The scan is
    restricted to the first cosine branch (area ratios up to
    ``0.5/anchor_n``); aliased larger-area solutions reproduce the anchor but
    not the monotone tuning between the endpoints. An unreachable
    ``f_q_zero``, ``d_j_zero`` outside (-1, 1), a non-finite ``d_j_anchor``
    or ``anchor_n`` outside [1, 5000] raises :class:`ParameterError`.
    """
    if not (abs(d_j_zero) < 1.0):
        raise ParameterError(f"d_j_zero out of (-1, 1): {d_j_zero!r}")
    if not math.isfinite(d_j_anchor):
        raise ParameterError(f"d_j_anchor must be finite, got {d_j_anchor!r}")
    e_j1, e_j2 = _split(_solve_e_jsigma(en, f_q_zero), d_j_zero)
    a = _scan_area(FluxMode.ONE_SQUID, e_j1, e_j2, anchor_n,
                   lambda e_jsigma, d_j: abs(d_j - d_j_anchor))
    return FluxConfig(mode=FluxMode.ONE_SQUID, e_j1_zero=e_j1, e_j2_zero=e_j2,
                      area_ratio_a=a)


def fit_both_squids_area(en: ModeEnergies, anchor_n: int, f_q_anchor: float) -> float:
    """Effective area ratio matching the qubit frequency at one flux anchor.

    The scan (step 1e-4) is restricted to the first cosine branch (area
    ratios up to ``0.5/anchor_n``) so the resulting 0..anchor_n sweep is
    monotone, as the measured one is. A non-finite ``f_q_anchor`` or
    ``anchor_n`` outside [1, 5000] raises :class:`ParameterError`.
    """
    if not math.isfinite(f_q_anchor):
        raise ParameterError(f"f_q_anchor must be finite, got {f_q_anchor!r}")
    e_j1, e_j2 = junction_energies(en)
    return _scan_area(FluxMode.BOTH_SQUIDS, e_j1, e_j2, anchor_n,
                      lambda e_jsigma, d_j: abs(_qubit_frequency(en, e_jsigma) - f_q_anchor))
