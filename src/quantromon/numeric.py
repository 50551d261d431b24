"""Exact diagonalization of the truncated two-mode quartic Hamiltonian.

Builds the Hamiltonian in a product Fock basis (the harmonic basis of each
mode's quadratic part), diagonalizes it, labels dressed states by their
dominant bare-state overlap, and extracts the same observables the
closed-form module predicts. Serves as the independent numerical oracle for
:mod:`quantromon.analytic`.

Every term conserves the joint photon-number parity ``(m_q + m_r) mod 2``;
without the transverse term (``d_j = 0``) each mode's own parity is
conserved too. Entries between parity sectors are exactly zero, so
:func:`numeric_spectrum` diagonalizes the two (or four) sector blocks one at
a time and labels each required state inside its own sector.

All matrix entries are in Hz. Charge terms enter as ``4*E_C*n**2`` with the
dimensionless pair-number operator conjugate to the phase, so the quadratic
part of each mode reproduces ``sqrt(8*E_Jmode*E_Cmode)`` exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analytic import SpectrumResult, invert_chi
from .errors import AmbiguousLabelingError, EigensolveError, ParameterError
from .params import ModeEnergies

__all__ = [
    "Truncation",
    "HamiltonianMatrix",
    "LabeledSpectrum",
    "build_hamiltonian",
    "eigensolve",
    "label_states",
    "extract_observables",
    "parity_sectors",
    "numeric_spectrum",
]

# labels (m_q, m_r) that must be identified for observable extraction
REQUIRED_LABELS = tuple((mq, mr) for mq in range(3) for mr in range(2))

_MIN_LEVELS = 4  # quartic terms need at least four Fock levels
_OVERLAP_THRESHOLD = 0.5
_OVERLAP_TIE = 1e-9


@dataclass(frozen=True)
class Truncation:
    """Fock levels kept per mode.

    Moderate truncations (the 12x12 default, converged against 10..14) are
    the meaningful regime: the top one or two levels of each mode carry
    boundary artifacts, and very large bases (40+ levels at typical device
    parameters) start probing the unbounded region of the quartic potential.
    """

    n_q: int = 12
    n_r: int = 12

    def __post_init__(self):
        if self.n_q < _MIN_LEVELS or self.n_r < _MIN_LEVELS:
            raise ParameterError(
                f"truncation must keep at least {_MIN_LEVELS} levels per mode, "
                f"got ({self.n_q}, {self.n_r})"
            )

    @property
    def dim(self) -> int:
        return self.n_q * self.n_r


@dataclass(frozen=True)
class HamiltonianMatrix:
    """Dense real symmetric Hamiltonian with its basis bookkeeping."""

    trunc: Truncation
    entries: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.trunc.dim

    def flat_index(self, m_q: int, m_r: int) -> int:
        return m_q * self.trunc.n_r + m_r


@dataclass(frozen=True)
class LabeledSpectrum:
    """Dressed-state energies (Hz) and bare-state overlaps keyed by (m_q, m_r)."""

    energies: dict[tuple[int, int], float]
    overlaps: dict[tuple[int, int], float]
    trunc: Truncation


def _ladder(n: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, n)), k=1)


def _mode_operators(n: int, e_c: float, e_j_mode: float) -> tuple[np.ndarray, np.ndarray]:
    """Phase operator x and charge-squared operator n2 for one mode.

    Zero-point amplitudes follow from the mode impedance:
    x_zp = (2*E_C/E_Jmode)**(1/4), n_zp = (E_Jmode/(32*E_C))**(1/4).
    """
    a = _ladder(n)
    x_zp = (2.0 * e_c / e_j_mode) ** 0.25
    n_zp = (e_j_mode / (32.0 * e_c)) ** 0.25
    x = x_zp * (a + a.T)
    d = a.T - a  # i*(charge)/n_zp, real antisymmetric
    n2 = -(n_zp**2) * (d @ d)
    return x, n2


def build_hamiltonian(en: ModeEnergies, trunc: Truncation,
                      include_quartics: bool = True) -> HamiltonianMatrix:
    """Assemble the truncated quartic Hamiltonian in the product Fock basis.

    Terms, with E_Jsigma = en.e_jq and constant offsets dropped:
    quadratic mode energies, quartic self-terms ``-(E_Jsigma/24) x_q**4`` and
    ``-(b**4/384) E_Jsigma x_r**4``, the cross-Kerr term
    ``-(b**2/16) E_Jsigma x_q**2 x_r**2``, and the asymmetry-induced
    transverse term ``-d_j (b/2) E_Jsigma x_q x_r``.

    ``include_quartics=False`` keeps only the quadratic and transverse parts
    (harmonic limit, used by tests).
    """
    e_jsigma = en.e_jq
    with np.errstate(invalid="ignore", over="ignore"):  # guarded below
        x_q, n2_q = _mode_operators(trunc.n_q, en.e_cq, en.e_jq)
        x_r, n2_r = _mode_operators(trunc.n_r, en.e_cr, en.e_jr)

        h_q = 4.0 * en.e_cq * n2_q + (en.e_jq / 2.0) * (x_q @ x_q)
        h_r = 4.0 * en.e_cr * n2_r + (en.e_jr / 2.0) * (x_r @ x_r)
        if include_quartics:
            x2_q = x_q @ x_q
            x2_r = x_r @ x_r
            h_q = h_q - (e_jsigma / 24.0) * (x2_q @ x2_q)
            h_r = h_r - (en.b**4 / 384.0) * e_jsigma * (x2_r @ x2_r)

        eye_q = np.eye(trunc.n_q)
        eye_r = np.eye(trunc.n_r)
        h = np.kron(h_q, eye_r) + np.kron(eye_q, h_r)
        if include_quartics:
            h -= (en.b**2 / 16.0) * e_jsigma * np.kron(x_q @ x_q, x_r @ x_r)
        if en.d_j != 0.0:
            h -= en.d_j * (en.b / 2.0) * e_jsigma * np.kron(x_q, x_r)

    if not np.all(np.isfinite(h)):
        raise ParameterError("Hamiltonian entries overflow: energy scales too large")

    scale = np.max(np.abs(h))
    asymmetry = np.max(np.abs(h - h.T))
    if scale > 0 and asymmetry > 1e-9 * scale:
        raise EigensolveError(
            f"assembled matrix asymmetry {asymmetry / scale:.3e} exceeds 1e-9"
        )
    h = 0.5 * (h + h.T)
    return HamiltonianMatrix(trunc=trunc, entries=h)


def eigensolve(h: HamiltonianMatrix | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors (columns)."""
    matrix = h.entries if isinstance(h, HamiltonianMatrix) else np.asarray(h)
    try:
        w, v = np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        raise EigensolveError(
            f"eigh failed to converge on a {matrix.shape[0]}x{matrix.shape[0]} "
            f"matrix: {exc}"
        ) from exc
    return w, v


def label_states(w: np.ndarray, v: np.ndarray, trunc: Truncation,
                 basis: np.ndarray | None = None) -> LabeledSpectrum:
    """Assign each required (m_q, m_r) label to a dressed eigenstate.

    Greedy assignment by descending bare-state overlap |<bare|dressed>|^2;
    ties below 1e-9 are broken by eigenvalue order. A best overlap below 0.5
    means the dressed state has no dominant bare character and labeling is
    declared ambiguous.

    ``basis`` holds the flat product-basis index ``m_q*n_r + m_r`` of each
    row of ``v`` (default: the full basis, in order); only the required
    labels inside it are assigned.
    """
    basis = np.arange(trunc.dim) if basis is None else np.asarray(basis)
    flat = {}
    for lbl in REQUIRED_LABELS:
        hit = np.flatnonzero(basis == lbl[0] * trunc.n_r + lbl[1])
        if hit.size:
            flat[lbl] = int(hit[0])
    candidates = []
    for lbl, row in flat.items():
        ov = v[row, :] ** 2
        for k in np.argsort(ov)[::-1][: len(REQUIRED_LABELS) + 4]:
            candidates.append((lbl, int(k), float(ov[k])))
    # descending overlap; near-ties resolved toward lower eigenvalues
    candidates.sort(key=lambda c: (-round(c[2] / _OVERLAP_TIE), c[1]))

    assigned: dict[tuple[int, int], tuple[int, float]] = {}
    used: set[int] = set()
    for lbl, k, ov in candidates:
        if lbl in assigned or k in used:
            continue
        assigned[lbl] = (k, ov)
        used.add(k)

    energies: dict[tuple[int, int], float] = {}
    overlaps: dict[tuple[int, int], float] = {}
    for lbl in flat:
        if lbl not in assigned:
            raise AmbiguousLabelingError(f"no eigenstate available for label {lbl}")
        k, ov = assigned[lbl]
        if ov < _OVERLAP_THRESHOLD:
            raise AmbiguousLabelingError(
                f"label {lbl}: best overlap {ov!r} < {_OVERLAP_THRESHOLD} at "
                f"truncation {trunc.n_q}x{trunc.n_r} (near-resonant mixing, or "
                "mixing with the top kept level; try a larger truncation)"
            )
        energies[lbl] = float(w[k])
        overlaps[lbl] = ov
    return LabeledSpectrum(energies=energies, overlaps=overlaps, trunc=trunc)


def extract_observables(ls: LabeledSpectrum, en: ModeEnergies) -> SpectrumResult:
    """Dressed observables from labeled transition energies.

    omega_q_t = E(1,0)-E(0,0), omega_r_t = E(0,1)-E(0,0),
    alpha_q = [E(1,0)-E(0,0)] - [E(2,0)-E(1,0)], and the total dispersive
    shift 2*chi_total = E(1,0)+E(0,1)-E(1,1)-E(0,0) (positive under the
    -2*chi*n_q*n_r convention). With d_j != 0 the cross-Kerr part is
    recovered by stripping the transverse correction.

    The quartic model's alpha_q exceeds the first-order closed form E_CQ by
    the fraction (17/4) E_CQ/omega_q at second order in E_CQ/omega_q.
    """
    e = ls.energies
    omega_q_t = e[(1, 0)] - e[(0, 0)]
    omega_r_t = e[(0, 1)] - e[(0, 0)]
    alpha_q = 2.0 * e[(1, 0)] - e[(0, 0)] - e[(2, 0)]
    two_chi_total = e[(1, 0)] + e[(0, 1)] - e[(1, 1)] - e[(0, 0)]

    if en.d_j == 0.0:
        two_chi = two_chi_total
        g_asymm = 0.0
    else:
        two_chi = invert_chi(
            two_chi_total, omega_q_t - omega_r_t, alpha_q, en.e_jq, en.d_j
        )
        g_asymm = -en.d_j * np.sqrt(max(two_chi, 0.0) * en.e_jq)
    return SpectrumResult(
        omega_q_t=omega_q_t,
        omega_r_t=omega_r_t,
        alpha_q=alpha_q,
        two_chi=two_chi,
        g_asymm=float(g_asymm),
        two_chi_total=two_chi_total,
    )


def parity_sectors(trunc: Truncation, per_mode: bool) -> list[np.ndarray]:
    """Flat basis indices of each photon-number parity sector, ascending.

    ``per_mode`` splits by each mode's parity, ``2*(m_q % 2) + m_r % 2``
    (four sectors); otherwise by the joint parity ``(m_q + m_r) % 2`` (two).
    """
    m_q, m_r = np.divmod(np.arange(trunc.dim), trunc.n_r)
    sector = 2 * (m_q % 2) + m_r % 2 if per_mode else (m_q + m_r) % 2
    return [np.flatnonzero(sector == s) for s in range(4 if per_mode else 2)]


def numeric_spectrum(en: ModeEnergies, trunc: Truncation | None = None) -> SpectrumResult:
    """Build, diagonalize and label one parity block at a time, then extract."""
    trunc = trunc or Truncation()
    h = build_hamiltonian(en, trunc)
    energies: dict[tuple[int, int], float] = {}
    overlaps: dict[tuple[int, int], float] = {}
    for idx in parity_sectors(trunc, per_mode=en.d_j == 0.0):
        w, v = eigensolve(h.entries[np.ix_(idx, idx)])
        ls = label_states(w, v, trunc, idx)
        energies.update(ls.energies)
        overlaps.update(ls.overlaps)
    return extract_observables(LabeledSpectrum(energies, overlaps, trunc), en)
