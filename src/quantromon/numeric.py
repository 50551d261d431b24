"""Exact diagonalization of the truncated two-mode quartic Hamiltonian.

Builds the Hamiltonian as plain symmetric arrays in a product Fock basis
(the harmonic basis of each mode's quadratic part; flat index
``m_q*n_r + m_r``), diagonalizes them, labels each dressed state by its
largest bare-state overlap, and extracts the same observables the
closed-form module predicts. Serves as the independent numerical oracle for
:mod:`quantromon.analytic`.

Every term conserves the joint photon-number parity ``(m_q + m_r) mod 2``;
without the transverse term (``d_j = 0``) each mode's own parity is
conserved too. Entries between parity sectors are exactly zero, so
:func:`build_hamiltonian` returns the two (or four) sector blocks, never
the full matrix, and :func:`numeric_spectrum` diagonalizes them one at a
time and labels each required state inside its own sector. Each term is a
Kronecker product of banded per-mode operators: their nonzeros are listed
once per spectrum and each block is summed by one ``np.bincount``.

All matrix entries are in Hz. Charge terms enter as ``4*E_C*n**2`` with the
dimensionless pair-number operator conjugate to the phase, so the quadratic
part of each mode reproduces ``sqrt(8*E_Jmode*E_Cmode)`` exactly.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .analytic import SpectrumResult, invert_chi
from .errors import AmbiguousLabelingError, EigensolveError, ParameterError, is_int
from .params import ModeEnergies

__all__ = [
    "Truncation",
    "build_hamiltonian",
    "eigensolve",
    "label_states",
    "extract_observables",
    "parity_sectors",
    "numeric_spectrum",
]

# the labels (m_q, m_r) that extract_observables reads; each must be at least
# _OVERLAP_THRESHOLD bare, so a hybridized device fails to label rather than
# giving observables of mixed states
REQUIRED_LABELS = ((0, 0), (0, 1), (1, 0), (1, 1), (2, 0))

_MIN_LEVELS = 4  # quartic terms need at least four Fock levels
_MAX_LEVELS = 64  # well past the meaningful range; 1000 levels would ask for GBs
# a label's bare state must outweigh the rest of its dressed state 2:1; any
# floor above 1/2 keeps two labels from taking one state
_OVERLAP_THRESHOLD = 2 / 3


class _TruncationFields(NamedTuple):
    n_q: int = 12
    n_r: int = 12


class Truncation(_TruncationFields):
    """Fock levels kept per mode.

    Moderate truncations (the 12x12 default, converged against 10..14) are
    the meaningful regime: the top one or two levels of each mode carry
    boundary artifacts, and very large bases (40+ levels at typical device
    parameters) start probing the unbounded region of the quartic potential.
    Each mode keeps 4 to 64 levels, an integer by
    :func:`~quantromon.errors.is_int`, stored as the equal ``int``, also on
    ``_replace``; with 4 the top level can mix about 50/50 with the first
    excitation and fail to label, so use 5 or more.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        trunc = super().__new__(cls, *args, **kwargs)
        if not all(is_int(n) and _MIN_LEVELS <= n <= _MAX_LEVELS for n in trunc):
            raise ParameterError(
                f"truncation must keep a whole number of {_MIN_LEVELS} to "
                f"{_MAX_LEVELS} levels per mode, got ({trunc.n_q}, {trunc.n_r})"
            )
        # an unsigned numpy size would turn the basis index arithmetic to floats
        return super().__new__(cls, *map(int, trunc))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def dim(self) -> int:
        return self.n_q * self.n_r


def _mode_operators(n: int, e_c: float, e_j_mode: float) -> tuple[np.ndarray, np.ndarray]:
    """Phase operator x and charge-squared operator n2 for one mode.

    Zero-point amplitudes follow from the mode impedance:
    x_zp = (2*E_C/E_Jmode)**(1/4), n_zp = (E_Jmode/(32*E_C))**(1/4).
    """
    a = np.diag(np.sqrt(np.arange(1, n)), k=1)  # annihilation operator
    x_zp = (2.0 * e_c / e_j_mode) ** 0.25
    n_zp = (e_j_mode / (32.0 * e_c)) ** 0.25
    x = x_zp * (a + a.T)
    d = a.T - a  # i*(charge)/n_zp, real antisymmetric
    n2 = -(n_zp**2) * (d @ d)
    return x, n2


# each mode's E_J/E_C, and the circuit elements that set it (params.derive_energies)
_MODE_SCALES = {
    "qubit": ("E_JQ/E_CQ", "e_jq", "e_cq", "circuit.l_j, circuit.c_j"),
    "resonator": ("E_JR/E_CR", "e_jr", "e_cr",
                  "circuit.l_r, circuit.c_r, circuit.l_j, circuit.c_j, circuit.b"),
}


def _overflow_error(en: ModeEnergies, mode_hamiltonians: dict[str, np.ndarray]
                    ) -> ParameterError:
    """The overflow error. It names each mode whose own Hamiltonian is not
    finite (both, when only their coupling overflows) and the circuit
    elements that set that mode's scale."""
    modes = [mode for mode, h in mode_hamiltonians.items()
             if not np.all(np.isfinite(h))] or list(mode_hamiltonians)
    parts = []
    for mode in modes:
        ratio, e_j, e_c, elements = _MODE_SCALES[mode]
        parts.append(f"{mode} mode: {ratio} = {getattr(en, e_j) / getattr(en, e_c):.3g} "
                     f"({elements})")
    return ParameterError(
        "Hamiltonian entries overflow: energy scales too large; " + "; ".join(parts))


def _kron_entries(a: np.ndarray, b: np.ndarray, c: float, n_r: int) -> tuple[np.ndarray, ...]:
    """Flat rows, columns and values of the nonzeros of ``c * np.kron(a, b)``
    (``b`` has ``n_r`` rows); each value is rounded as that product rounds it."""
    (i, j), (k, l) = np.nonzero(a), np.nonzero(b)
    rows = (i[:, None] * n_r + k).ravel()
    cols = (j[:, None] * n_r + l).ravel()
    return rows, cols, c * np.multiply.outer(a[i, j], b[k, l]).ravel()


def _sector_entries(terms: list, sectors: list[np.ndarray], trunc: Truncation) -> list[tuple]:
    """Each sector's nonzeros of ``sum(c * kron(a, b) for a, b, c in terms)``,
    as flat positions ``row*size + col`` in its block and values, in term
    order. The terms' nonzeros are listed once; those between sectors go."""
    rows, cols, values = (np.concatenate(part) for part in
                          zip(*(_kron_entries(a, b, c, trunc.n_r) for a, b, c in terms)))
    sector, pos = np.empty((2, trunc.dim), dtype=np.intp)  # each state's sector, row in it
    for s, idx in enumerate(sectors):
        sector[idx], pos[idx] = s, np.arange(idx.size)
    owner = np.where(sector[rows] == sector[cols], sector[rows], -1)  # -1: between sectors
    rows, cols = pos[rows], pos[cols]
    return [(rows[owner == s] * idx.size + cols[owner == s], values[owner == s])
            for s, idx in enumerate(sectors)]


def build_hamiltonian(en: ModeEnergies, trunc: Truncation
                      ) -> list[tuple[np.ndarray, np.ndarray]]:
    """The truncated quartic Hamiltonian (Hz) as its parity blocks.

    One ``(indices, block)`` pair per sector of
    ``parity_sectors(trunc, per_mode=en.d_j == 0.0)``, in that order: the
    symmetric principal submatrix on the flat indices ``m_q*n_r + m_r`` of
    its bare states. Entries between sectors are exactly zero.

    Terms, with E_Jsigma = en.e_jq and constant offsets dropped:
    quadratic mode energies, quartic self-terms ``-(E_Jsigma/24) x_q**4`` and
    ``-(b**4/384) E_Jsigma x_r**4``, the cross-Kerr term
    ``-(b**2/16) E_Jsigma x_q**2 x_r**2``, and the asymmetry-induced
    transverse term ``-d_j (b/2) E_Jsigma x_q x_r``.

    Each term is a Kronecker product of banded per-mode operators, built
    once. A block adds the terms' nonzeros in the order of the full sum
    ``((T_q + T_r) - kerr*K) - transverse*X``, so every entry has its bits,
    up to the sign of a zero. All blocks pass the checks before any is
    returned, each in one more array: the scale is ``max(h.max(), -h.min())``
    (not finite when an entry is not), the asymmetry the largest entry of
    ``h - h.T``; the array then holds ``0.5*(h + h.T)`` and is returned.
    """
    n_q, n_r, e_jsigma = trunc.n_q, trunc.n_r, en.e_jq
    sectors = parity_sectors(trunc, per_mode=en.d_j == 0.0)
    with np.errstate(invalid="ignore", over="ignore"):  # guarded below
        x_q, n2_q = _mode_operators(n_q, en.e_cq, en.e_jq)
        x_r, n2_r = _mode_operators(n_r, en.e_cr, en.e_jr)
        x2_q, x2_r = x_q @ x_q, x_r @ x_r
        h_q = 4.0 * en.e_cq * n2_q + (en.e_jq / 2.0) * x2_q
        h_r = 4.0 * en.e_cr * n2_r + (en.e_jr / 2.0) * x2_r
        h_q = h_q - (e_jsigma / 24.0) * (x2_q @ x2_q)
        h_r = h_r - (en.b**4 / 384.0) * e_jsigma * (x2_r @ x2_r)
        # (a, b, c): the term c*kron(a, b), in the order the terms are summed
        terms = [(h_q, np.eye(n_r), 1.0), (np.eye(n_q), h_r, 1.0),
                 (x2_q, x2_r, -(en.b**2 / 16.0) * e_jsigma)]
        if en.d_j != 0.0:
            terms.append((x_q, x_r, -(en.d_j * (en.b / 2.0) * e_jsigma)))
        entries = _sector_entries(terms, sectors, trunc)

    blocks = []
    for idx in sectors:
        flat, values = entries.pop(0)
        h = np.bincount(flat, values, minlength=idx.size**2).reshape(idx.size, idx.size)
        scale = max(h.max(), -h.min())
        if not np.isfinite(scale):
            raise _overflow_error(en, {"qubit": h_q, "resonator": h_r})
        # h - h.T is antisymmetric bit for bit: its largest entry is its largest magnitude
        out = np.subtract(h, h.T)
        asymmetry = out.max()
        if scale > 0 and asymmetry > 1e-9 * scale:
            raise EigensolveError(f"assembled matrix asymmetry {asymmetry / scale:.3e} "
                                  "exceeds 1e-9")
        np.add(h, h.T, out=out)
        out *= 0.5
        blocks.append((idx, out))
        del h  # the next block's sum can take its memory
    return blocks


def eigensolve(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors (columns)."""
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise EigensolveError(
            f"eigh failed to converge on a {h.shape[0]}x{h.shape[0]} matrix: {exc}"
        ) from exc
    return w, v


def label_states(w: np.ndarray, v: np.ndarray, trunc: Truncation, basis: np.ndarray
                 ) -> tuple[dict[tuple[int, int], float], dict[tuple[int, int], float]]:
    """Assign each required (m_q, m_r) label to a dressed eigenstate.

    Each label takes the eigenstate with the largest bare-state overlap
    |<bare|dressed>|^2. A largest overlap below 2/3 means that state is
    hybridized, and labeling is declared ambiguous
    (:class:`AmbiguousLabelingError`). An eigenstate's overlaps sum to 1, so
    above 1/2 no two labels can take the same eigenstate.

    ``basis`` holds the flat product-basis index ``m_q*n_r + m_r`` of each
    row of ``v``: a parity sector's indices, or ``np.arange(trunc.dim)``
    for the full matrix. Only the required labels inside it are assigned.
    Returns the dressed energies (Hz) and the overlaps, each keyed by label.
    """
    basis = np.asarray(basis)
    energies: dict[tuple[int, int], float] = {}
    overlaps: dict[tuple[int, int], float] = {}
    for lbl in REQUIRED_LABELS:
        hit = np.flatnonzero(basis == lbl[0] * trunc.n_r + lbl[1])
        if not hit.size:
            continue
        ov = v[hit[0], :] ** 2
        k = int(np.argmax(ov))
        best = float(ov[k])
        if best < _OVERLAP_THRESHOLD:
            raise AmbiguousLabelingError(
                f"label {lbl}: best overlap {best!r} < {_OVERLAP_THRESHOLD:.4g} at "
                f"truncation {trunc.n_q}x{trunc.n_r} (near-resonant mixing, or "
                "mixing with the top kept level; try a larger truncation)"
            )
        energies[lbl] = float(w[k])
        overlaps[lbl] = best
    return energies, overlaps


def extract_observables(e: dict[tuple[int, int], float],
                        en: ModeEnergies) -> SpectrumResult:
    """Dressed observables from the labeled energies ``e`` (Hz, by (m_q, m_r)).

    omega_q_t = E(1,0)-E(0,0), omega_r_t = E(0,1)-E(0,0),
    alpha_q = [E(1,0)-E(0,0)] - [E(2,0)-E(1,0)], and the total dispersive
    shift 2*chi_total = E(1,0)+E(0,1)-E(1,1)-E(0,0) (positive under the
    -2*chi*n_q*n_r convention). With d_j != 0 the cross-Kerr part is
    recovered by stripping the transverse correction.

    The quartic model's alpha_q exceeds the first-order closed form E_CQ by
    the fraction (17/4) E_CQ/omega_q at second order in E_CQ/omega_q.
    """
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


def numeric_spectrum(en: ModeEnergies, trunc: Truncation = Truncation()) -> SpectrumResult:
    """Build every parity block, diagonalize and label one at a time, then extract."""
    blocks = build_hamiltonian(en, trunc)  # every block is checked before the first solve
    energies: dict[tuple[int, int], float] = {}
    while blocks:
        idx, h = blocks.pop(0)  # a solved block is freed before the next solve
        energies.update(label_states(*eigensolve(h), trunc, idx)[0])
    return extract_observables(energies, en)
