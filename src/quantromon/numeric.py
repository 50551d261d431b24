"""Exact diagonalization of the truncated two-mode quartic Hamiltonian.

Builds the Hamiltonian as a plain symmetric array in a product Fock basis
(the harmonic basis of each mode's quadratic part; flat index
``m_q*n_r + m_r``), diagonalizes it, labels each dressed state by its
largest bare-state overlap, and extracts the same observables the
closed-form module predicts. Serves as the independent numerical oracle for
:mod:`quantromon.analytic`.

Every term conserves the joint photon-number parity ``(m_q + m_r) mod 2``;
without the transverse term (``d_j = 0``) each mode's own parity is
conserved too. Entries between parity sectors are exactly zero, so
:func:`numeric_spectrum` assembles the two (or four) sector blocks directly,
never the full matrix, diagonalizes them one at a time and labels each
required state inside its own sector. Each block is written into one array:
the Kronecker products of the per-mode operators go straight into strided
views of it, and its checks reuse one more array, which is returned.

All matrix entries are in Hz. Charge terms enter as ``4*E_C*n**2`` with the
dimensionless pair-number operator conjugate to the phase, so the quadratic
part of each mode reproduces ``sqrt(8*E_Jmode*E_Cmode)`` exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import SpectrumResult, invert_chi
from .errors import AmbiguousLabelingError, EigensolveError, ParameterError
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

# labels (m_q, m_r) that must be identified for observable extraction
REQUIRED_LABELS = tuple((mq, mr) for mq in range(3) for mr in range(2))

_MIN_LEVELS = 4  # quartic terms need at least four Fock levels
_OVERLAP_THRESHOLD = 0.5


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


def build_hamiltonian(en: ModeEnergies, trunc: Truncation,
                      basis: np.ndarray | None = None,
                      include_quartics: bool = True) -> np.ndarray:
    """The truncated quartic Hamiltonian (Hz) in the product Fock basis.

    A symmetric array; row and column ``m_q*n_r + m_r`` belong to the bare
    state (m_q, m_r). ``basis`` (ascending flat indices, a union of sectors
    from :func:`parity_sectors`) selects the principal submatrix on those
    states; the default is the full matrix.

    Terms, with E_Jsigma = en.e_jq and constant offsets dropped:
    quadratic mode energies, quartic self-terms ``-(E_Jsigma/24) x_q**4`` and
    ``-(b**4/384) E_Jsigma x_r**4``, the cross-Kerr term
    ``-(b**2/16) E_Jsigma x_q**2 x_r**2``, and the asymmetry-induced
    transverse term ``-d_j (b/2) E_Jsigma x_q x_r``.

    A block is written into one array, without the full matrix. Each
    per-mode parity sector (``m_q % 2``, ``m_r % 2``) is a Kronecker product
    of the two modes' even or odd levels. In ``basis`` its states sit on an
    affine grid, first + i*step_q + j*step_r for its i-th qubit and j-th
    resonator level, because ``basis`` repeats with period two in ``m_q``. So
    the product of two sectors is a strided view of the block, and each
    Kronecker product is written straight into it. A sector's own block
    takes ``-kerr*kron(x2_q, x2_r)``, then the ``h_q`` and ``h_r`` bands in
    place, then its diagonal as ``(h_q + h_r) - kerr*kron(x2_q, x2_r)``.
    Only the transverse term couples two sectors, and it flips both
    parities. Every entry has the bits of the same entry of the full matrix,
    up to the sign of a zero.

    The checks allocate one more array, which is also the result: the scale
    is ``max(h.max(), -h.min())`` (not finite when an entry is not), the
    asymmetry is the largest entry of ``h - h.T``, and the same buffer then
    holds ``0.5*(h + h.T)``.

    ``include_quartics=False`` keeps only the quadratic and transverse parts
    (harmonic limit, used by tests).
    """
    n_q, n_r = trunc.n_q, trunc.n_r
    basis = np.arange(trunc.dim) if basis is None else np.asarray(basis)
    m_q, m_r = np.divmod(basis, n_r)
    # the per-mode sectors in basis, as (qubit parity, resonator parity), and
    # the flat index of each state of each, by (qubit level, resonator level)
    sectors = [divmod(int(k), 2)
               for k in np.flatnonzero(np.bincount(2 * (m_q % 2) + m_r % 2, minlength=4))]
    order = [np.arange(s, n_q, 2)[:, None] * n_r + np.arange(t, n_r, 2) for s, t in sectors]
    if not np.array_equal(np.sort(np.concatenate([o.ravel() for o in order])), basis):
        raise ValueError("basis must be ascending and a union of parity sectors")
    size = basis.size
    grids = []  # (first, step_q, step_r): the rows of each sector in the block
    for o in order:
        pos = np.searchsorted(basis, o)
        grids.append((int(pos[0, 0]), int(pos[1, 0] - pos[0, 0]), int(pos[0, 1] - pos[0, 0])))

    e_jsigma = en.e_jq
    h = np.empty((size, size))
    row_stride, col_stride = h.strides
    with np.errstate(invalid="ignore", over="ignore"):  # guarded below
        x_q, n2_q = _mode_operators(n_q, en.e_cq, en.e_jq)
        x_r, n2_r = _mode_operators(n_r, en.e_cr, en.e_jr)

        x2_q = x_q @ x_q
        x2_r = x_r @ x_r
        h_q = 4.0 * en.e_cq * n2_q + (en.e_jq / 2.0) * x2_q
        h_r = 4.0 * en.e_cr * n2_r + (en.e_jr / 2.0) * x2_r
        if include_quartics:
            h_q = h_q - (e_jsigma / 24.0) * (x2_q @ x2_q)
            h_r = h_r - (en.b**4 / 384.0) * e_jsigma * (x2_r @ x2_r)
        kerr = (en.b**2 / 16.0) * e_jsigma
        transverse = en.d_j * (en.b / 2.0) * e_jsigma

        for k, (s, t) in enumerate(sectors):
            q, r = slice(s, None, 2), slice(t, None, 2)
            row, row_q, row_r = grids[k]
            for l, (u, w) in enumerate(sectors):
                col, col_q, col_r = grids[l]
                # h on rows of sector k and columns of sector l (np.ndarray
                # refuses a view that reaches outside h)
                block = np.ndarray(order[k].shape + order[l].shape, h.dtype, buffer=h,
                                   offset=row * row_stride + col * col_stride,
                                   strides=(row_q * row_stride, row_r * row_stride,
                                            col_q * col_stride, col_r * col_stride))
                if k == l:
                    if include_quartics:
                        np.multiply(x2_q[q, q][:, None, :, None], x2_r[r, r][None, :, None, :],
                                    out=block)
                        block *= -kerr
                    else:
                        block.fill(0.0)
                    # einsum gives writeable views: the h_q band block[a, b, c, b],
                    # the h_r band block[a, b, a, d] and the diagonal block[a, b, a, b]
                    band_q = np.einsum("abcb->acb", block)
                    band_q += h_q[q, q][:, :, None]
                    band_r = np.einsum("abad->abd", block)
                    band_r += h_r[r, r]
                    diagonal = h_q.diagonal()[q, None] + h_r.diagonal()[r]
                    if include_quartics:
                        diagonal -= kerr * (x2_q.diagonal()[q, None] * x2_r.diagonal()[r])
                    np.einsum("abab->ab", block)[...] = diagonal
                elif u != s and w != t and en.d_j != 0.0:
                    np.multiply(x_q[q, u::2][:, None, :, None], x_r[r, w::2][None, :, None, :],
                                out=block)
                    block *= -transverse
                else:  # no term couples these two sectors
                    block.fill(0.0)

        scale = max(h.max(), -h.min())
    if not np.isfinite(scale):
        raise _overflow_error(en, {"qubit": h_q, "resonator": h_r})

    # h - h.T is antisymmetric bit for bit, so its largest entry is its
    # largest magnitude
    out = np.subtract(h, h.T)
    asymmetry = out.max()
    if scale > 0 and asymmetry > 1e-9 * scale:
        raise EigensolveError(
            f"assembled matrix asymmetry {asymmetry / scale:.3e} exceeds 1e-9"
        )
    np.add(h, h.T, out=out)
    out *= 0.5
    return out


def eigensolve(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors (columns)."""
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise EigensolveError(
            f"eigh failed to converge on a {h.shape[0]}x{h.shape[0]} matrix: {exc}"
        ) from exc
    return w, v


def label_states(w: np.ndarray, v: np.ndarray, trunc: Truncation,
                 basis: np.ndarray | None = None
                 ) -> tuple[dict[tuple[int, int], float], dict[tuple[int, int], float]]:
    """Assign each required (m_q, m_r) label to a dressed eigenstate.

    Each label takes the eigenstate with the largest bare-state overlap
    |<bare|dressed>|^2. A largest overlap below 0.5 means no dressed state
    has dominant bare character, and labeling is declared ambiguous. So is a
    collision, two labels taking the same eigenstate: an eigenstate's
    overlaps sum to 1, so that happens only at an exact 50/50 mix, and above
    it the assignment is one-to-one. Both raise
    :class:`AmbiguousLabelingError`.

    ``basis`` holds the flat product-basis index ``m_q*n_r + m_r`` of each
    row of ``v`` (default: the full basis, in order); only the required
    labels inside it are assigned. Returns the dressed energies (Hz) and the
    overlaps, each keyed by label.
    """
    basis = np.arange(trunc.dim) if basis is None else np.asarray(basis)
    energies: dict[tuple[int, int], float] = {}
    overlaps: dict[tuple[int, int], float] = {}
    owner: dict[int, tuple[int, int]] = {}
    for lbl in REQUIRED_LABELS:
        hit = np.flatnonzero(basis == lbl[0] * trunc.n_r + lbl[1])
        if not hit.size:
            continue
        ov = v[hit[0], :] ** 2
        k = int(np.argmax(ov))
        best = float(ov[k])
        if best < _OVERLAP_THRESHOLD:
            raise AmbiguousLabelingError(
                f"label {lbl}: best overlap {best!r} < {_OVERLAP_THRESHOLD} at "
                f"truncation {trunc.n_q}x{trunc.n_r} (near-resonant mixing, or "
                "mixing with the top kept level; try a larger truncation)"
            )
        if k in owner:
            raise AmbiguousLabelingError(
                f"labels {owner[k]} and {lbl} both have their best overlap "
                f"({best!r}) with one eigenstate at truncation "
                f"{trunc.n_q}x{trunc.n_r}: an exact 50/50 mix"
            )
        owner[k] = lbl
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


def numeric_spectrum(en: ModeEnergies, trunc: Truncation | None = None) -> SpectrumResult:
    """Build, diagonalize and label one parity block at a time, then extract."""
    trunc = trunc or Truncation()
    sectors = parity_sectors(trunc, per_mode=en.d_j == 0.0)
    # every block passes its checks before the first solve
    blocks = [build_hamiltonian(en, trunc, idx) for idx in sectors]
    energies: dict[tuple[int, int], float] = {}
    for idx in sectors:
        w, v = eigensolve(blocks.pop(0))  # a solved block is freed at once
        energies.update(label_states(w, v, trunc, idx)[0])
    return extract_observables(energies, en)
