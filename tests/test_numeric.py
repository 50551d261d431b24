import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quantromon import numeric
from quantromon.analytic import bare_modes, dressed_spectrum
from quantromon.errors import (AmbiguousLabelingError, EigensolveError, NumericalError,
                               ParameterError)
from quantromon.flux import energies_at_flux
from quantromon.numeric import (
    REQUIRED_LABELS,
    Truncation,
    build_hamiltonian,
    eigensolve,
    extract_observables,
    label_states,
    numeric_spectrum,
    parity_sectors,
)
from quantromon.params import CircuitParams, derive_energies

TABLE = CircuitParams(l_j=8.2e-9, c_j=56.88e-15, l_r=0.546e-9, c_r=781.8e-15,
                      b=0.405, d_j=0.0)
EN = derive_energies(TABLE)


class TestTruncation:
    def test_minimum_levels(self):
        with pytest.raises(ParameterError):
            Truncation(3, 12)
        with pytest.raises(ParameterError):
            Truncation(12, 3)

    def test_maximum_levels_rejected(self):
        for n_q, n_r in ((65, 12), (12, 65)):
            with pytest.raises(ParameterError, match=rf"4 to 64 levels per mode, got "
                                                     rf"\({n_q}, {n_r}\)"):
                Truncation(n_q, n_r)

    @pytest.mark.parametrize("n_q, n_r", [(12.0, 12), (12, 12.0), (True, 12)])
    def test_non_integer_levels_rejected(self, n_q, n_r):
        with pytest.raises(ParameterError, match=r"4 to 64 levels per mode, got "):
            Truncation(n_q, n_r)

    def test_numpy_integer_levels_accepted(self):
        assert Truncation(np.int64(5), np.int32(7)).dim == 35

    def test_maximum_levels_accepted(self):
        assert Truncation(64, 64).dim == 64 * 64

    def test_dim(self):
        assert Truncation(5, 7).dim == 35


class TestEigensolve:
    def test_two_by_two(self):
        w, v = eigensolve(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert w == pytest.approx([-1.0, 1.0])
        assert np.allclose(v @ v.T, np.eye(2), atol=1e-12)

    def test_diagonal(self):
        d = np.array([3.0, -1.0, 2.0, 0.5])
        w, v = eigensolve(np.diag(d))
        assert np.array_equal(w, np.sort(d))
        assert np.allclose(np.abs(v), np.eye(4)[:, np.argsort(d)])

    def test_random_reconstruction(self):
        rng = np.random.default_rng(11)
        m = rng.normal(size=(20, 20))
        m = 0.5 * (m + m.T)
        w, v = eigensolve(m)
        norm = np.linalg.norm(m)
        assert np.linalg.norm(v @ np.diag(w) @ v.T - m) <= 1e-8 * norm
        assert np.linalg.norm(v.T @ v - np.eye(20)) <= 1e-8
        for k in range(20):
            assert np.linalg.norm(m @ v[:, k] - w[k] * v[:, k]) <= 1e-8 * norm


def _full(en, trunc):
    """The ``dim x dim`` matrix with the blocks of ``build_hamiltonian``
    scattered into place and zeros between them."""
    h = np.zeros((trunc.dim, trunc.dim))
    for idx, block in build_hamiltonian(en, trunc):
        h[np.ix_(idx, idx)] = block
    return h


class TestBuildHamiltonian:
    def test_symmetric(self):
        h = _full(EN, Truncation(10, 10))
        scale = np.max(np.abs(h))
        assert np.max(np.abs(h - h.T)) <= 1e-9 * scale

    def test_harmonic_limit_energies_exact(self):
        # quartics off: labeled transition energies are m_q*w_q + m_r*w_r
        trunc = Truncation(10, 10)
        h = _oracle(EN, trunc, include_quartics=False)
        w, v = eigensolve(h)
        energies, _ = label_states(w, v, trunc, np.arange(trunc.dim))
        modes = bare_modes(EN)
        e0 = energies[(0, 0)]
        for (mq, mr), energy in energies.items():
            expected = mq * modes.omega_q + mr * modes.omega_r
            assert energy - e0 == pytest.approx(expected, rel=1e-12, abs=1.0)

    def test_uncoupled_b_zero(self):
        en0 = derive_energies(TABLE._replace(b=0.0))
        trunc = Truncation(8, 8)
        h = _full(en0, trunc)
        for iq in range(8):
            for ir in range(8):
                for jq in range(8):
                    for jr in range(8):
                        if iq != jq and ir != jr:
                            assert h[iq * 8 + ir, jq * 8 + jr] == 0.0
        w, v = eigensolve(h)
        _, overlaps = label_states(w, v, trunc, np.arange(trunc.dim))
        # the cross-mode factorization is exact; the qubit's own quartic
        # still dresses its Fock states (about 3e-3 at m_q = 2)
        for overlap in overlaps.values():
            assert overlap >= 0.99

    def test_harmonic_uncoupled_overlaps_exactly_one(self):
        trunc = Truncation(10, 10)
        h = _oracle(derive_energies(TABLE._replace(b=0.0)), trunc,
                    include_quartics=False)
        w, v = eigensolve(h)
        _, overlaps = label_states(w, v, trunc, np.arange(trunc.dim))
        for overlap in overlaps.values():
            assert overlap >= 1.0 - 1e-12

    def test_parity_block_structure(self):
        # d_j = 0: per-mode photon-number parity is conserved at this order,
        # so the blocks are the four per-mode sectors
        trunc = Truncation(8, 8)
        sectors = [idx for idx, _ in build_hamiltonian(EN, trunc)]
        assert len(sectors) == 4
        for idx, expected in zip(sectors, parity_sectors(trunc, per_mode=True)):
            assert np.array_equal(idx, expected)
        h = _oracle(EN, trunc)
        for iq in range(8):
            for ir in range(8):
                for jq in range(8):
                    for jr in range(8):
                        if (iq - jq) % 2 or (ir - jr) % 2:
                            assert h[iq * 8 + ir, jq * 8 + jr] == 0.0

    def test_overflow_rejected(self):
        # zero-point amplitude (2*e_cq/e_jq)**(1/4) overflows for this combo
        huge = EN._replace(e_cq=1e300, e_jq=1e-300, e_j=5e-301)
        with pytest.raises(ParameterError):
            build_hamiltonian(huge, Truncation(6, 6))


class TestObservables:
    def test_chi_against_analytic_within_ten_percent(self):
        ana = dressed_spectrum(EN)
        num = numeric_spectrum(EN, Truncation(12, 12))
        assert abs(num.two_chi - ana.two_chi) <= 0.10 * ana.two_chi

    def test_anharmonicity_matches_second_order_perturbation(self):
        # the quartic model's exact anharmonicity exceeds E_CQ by the
        # second-order correction (17/4) * E_CQ / omega_q plus smaller terms
        num = numeric_spectrum(EN, Truncation(12, 12))
        omega_q = bare_modes(EN).omega_q
        alpha_pt2 = EN.e_cq * (1.0 + 4.25 * EN.e_cq / omega_q)
        assert num.alpha_q > EN.e_cq
        assert abs(num.alpha_q - alpha_pt2) <= 0.035 * EN.e_cq

    @pytest.mark.parametrize("scale", [1, 2, 4, 8, 16])
    def test_anharmonicity_second_order_coefficient_under_scaling(self, scale):
        # with r = E_CQ/omega_q, alpha_q/E_CQ = 1 + (17/4) r + c r**2 + ...;
        # scaling c_j takes r from 0.023 down to 0.0058, so an error d in the
        # 17/4 coefficient shifts the remainder c by d/r, i.e. 43*d to 173*d.
        # The quartic oscillator alone has c = 233/8; the resonator adds a
        # few units (remainder measured 34.5-37.4 over these scalings).
        en = derive_energies(TABLE._replace(c_j=TABLE.c_j * scale))
        r = en.e_cq / bare_modes(en).omega_q
        num = numeric_spectrum(en, Truncation(12, 12))
        remainder = (num.alpha_q / en.e_cq - 1.0 - 4.25 * r) / r**2
        assert 30.0 <= remainder <= 42.0

    def test_dressed_frequencies_close_to_analytic(self):
        ana = dressed_spectrum(EN)
        num = numeric_spectrum(EN, Truncation(12, 12))
        assert num.omega_q_t == pytest.approx(ana.omega_q_t, rel=5e-3)
        assert num.omega_r_t == pytest.approx(ana.omega_r_t, rel=5e-3)

    def test_truncation_convergence(self):
        ref = numeric_spectrum(EN, Truncation(14, 14))
        low = numeric_spectrum(EN, Truncation(10, 10))
        assert abs(ref.two_chi - low.two_chi) < 0.01 * ref.two_chi
        assert abs(ref.alpha_q - low.alpha_q) < 0.01 * ref.alpha_q
        assert abs(ref.omega_q_t - low.omega_q_t) < 0.01 * ref.omega_q_t

    def test_harmonic_uncoupled_limit_zero_chi_and_alpha(self):
        trunc = Truncation(10, 10)
        h = _oracle(EN, trunc, include_quartics=False)
        w, v = eigensolve(h)
        energies, _ = label_states(w, v, trunc, np.arange(trunc.dim))
        obs = extract_observables(energies, EN)
        assert abs(obs.alpha_q) < 1.0
        assert abs(obs.two_chi) < 1.0

    def test_b_zero_chi_below_kilohertz(self):
        en0 = derive_energies(TABLE._replace(b=0.0))
        num = numeric_spectrum(en0, Truncation(10, 10))
        assert abs(num.two_chi) < 1e3

    def test_dispersive_overlaps_above_ninety_percent(self):
        trunc = Truncation(12, 12)
        h = _full(EN, trunc)
        w, v = eigensolve(h)
        _, overlaps = label_states(w, v, trunc, np.arange(trunc.dim))
        assert set(overlaps) == set(REQUIRED_LABELS)
        assert all(ov > 0.9 for ov in overlaps.values())

    def test_transverse_coupling_raises_total_shift(self):
        sym = numeric_spectrum(EN, Truncation(12, 12))
        asym = numeric_spectrum(derive_energies(TABLE._replace(d_j=0.045)),
                                Truncation(12, 12))
        assert asym.two_chi_total > sym.two_chi_total
        assert asym.g_asymm < 0.0

    def test_symmetric_case_total_equals_kerr(self):
        num = numeric_spectrum(EN, Truncation(12, 12))
        assert num.two_chi_total == num.two_chi
        assert num.g_asymm == 0.0

    def test_resonant_labeling_ambiguous(self):
        # tune the junction energy until the dressed modes are degenerate,
        # with enough asymmetry-induced coupling to hybridize them: a read
        # label falls below the floor
        lo, hi = 1e9, 1e12
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if dressed_spectrum(energies_at_flux(EN, mid, 0.0)).delta < 0:
                lo = mid
            else:
                hi = mid
        en_res = energies_at_flux(EN, 0.5 * (lo + hi), 0.3)
        with pytest.raises(AmbiguousLabelingError):
            numeric_spectrum(en_res, Truncation(12, 12))

    def test_resonant_failure_names_the_guard_label(self):
        # the device of the CLI's resonant test: the read labels are the
        # guard, and (1, 1), the first of them below the floor in the first
        # parity block, names the failure
        en = derive_energies(CircuitParams(l_j=7.394e-9, c_j=56.88e-15, l_r=0.546e-9,
                                           c_r=781.8e-15, b=0.405, d_j=0.3))
        with pytest.raises(AmbiguousLabelingError, match=r"^label \(1, 1\): best overlap 0\.53"):
            numeric_spectrum(en, Truncation(12, 12))

    @pytest.mark.parametrize("params, weakest", [
        # the device that the unread (2, 1) label used to refuse: (1, 1) is
        # 0.841 bare, (2, 1) only 0.449
        ((1.253e-08, 7.02e-14, 6.848e-10, 1.62e-12, 0.8318, -0.2171), 0.841),
        # a device of the draw that (2, 1), 0.469 bare, refused: (1, 1) is 0.726
        ((4.991e-09, 6.489e-14, 8.497e-10, 5.113e-13, 0.8764, 0.2831), 0.726),
    ], ids=["weakest-0.841", "weakest-0.726"])
    def test_read_labels_above_floor_give_spectrum(self, params, weakest):
        en = derive_energies(CircuitParams(*params))
        for trunc in (Truncation(12, 12), Truncation(16, 12), Truncation(24, 24)):
            overlaps = {}
            for idx, h in build_hamiltonian(en, trunc):
                overlaps.update(label_states(*eigensolve(h), trunc, idx)[1])
            assert set(overlaps) == set(REQUIRED_LABELS)
            assert min(overlaps.values()) == pytest.approx(weakest, abs=1e-3)
            numeric_spectrum(en, trunc)

    @pytest.mark.parametrize("n_q, n_r", [(12, 4), (4, 12)])
    def test_ambiguous_message_shows_overlap_below_threshold(self, n_q, n_r):
        # the top kept level of a four-level mode mixes about 50/50 with the
        # first excitation, below the threshold
        with pytest.raises(AmbiguousLabelingError) as info:
            numeric_spectrum(EN, Truncation(n_q, n_r))
        msg = str(info.value)
        match = re.search(r"best overlap (\S+) < (\S+) at truncation (\d+)x(\d+)", msg)
        assert match, msg
        overlap, limit = float(match[1]), float(match[2])
        assert overlap < limit
        assert len(match[1].lstrip("0.")) >= 6  # significant digits shown
        assert (int(match[3]), int(match[4])) == (n_q, n_r)
        assert "larger truncation" in msg

    def test_agreement_degrades_as_inductor_softens(self):
        # regression trend: relative analytic/numeric chi deviation grows as
        # e_lr/e_j drops from 15 toward 2
        deviations = []
        for ratio in (15.0, 8.0, 4.0, 2.0):
            l_r = (EN.e_lr * TABLE.l_r) / (ratio * EN.e_j)
            params = TABLE._replace(l_r=l_r)
            en = derive_energies(params)
            ana = dressed_spectrum(en)
            num = numeric_spectrum(en, Truncation(12, 12))
            deviations.append(abs(num.two_chi - ana.two_chi) / num.two_chi)
        assert all(lo < hi for lo, hi in zip(deviations, deviations[1:]))


class TestLabelStates:
    def test_exact_half_mix_below_floor(self):
        # a 45 degree rotation over the rows of (0, 0) and (1, 0): each row's
        # largest overlap, 0.5000000000000001, is shared by the same two
        # eigenstates, and the floor, above 1/2, refuses the first label
        trunc = Truncation(4, 4)
        rows = [0 * trunc.n_r + 0, 1 * trunc.n_r + 0]
        v = np.eye(trunc.dim)
        c = math.sqrt(0.5)
        v[np.ix_(rows, rows)] = [[c, -c], [c, c]]
        with pytest.raises(AmbiguousLabelingError,
                           match=r"^label \(0, 0\): best overlap 0\.5000000000000001 < 0\.6667 "):
            label_states(np.arange(trunc.dim, dtype=float), v, trunc, np.arange(trunc.dim))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(4, 6), st.integers(4, 6), st.booleans(), st.integers(0, 3),
           st.floats(0.0, 2.0), st.integers(0, 2**32 - 1))
    @example(4, 4, True, 0, 0.4296817094518418, 202)  # (v ** 2)[k] != v[k] ** 2
    def test_labels_distinct_and_dominant(self, n_q, n_r, per_mode, sector, coupling,
                                          seed):
        # a random symmetric block over one parity sector: diagonal spread
        # 1, off-diagonal coupling up to twice that
        trunc = Truncation(n_q, n_r)
        sectors = parity_sectors(trunc, per_mode)
        idx = sectors[sector % len(sectors)]
        rng = np.random.default_rng(seed)
        m = coupling * rng.normal(size=(idx.size, idx.size))
        m = 0.5 * (m + m.T) + np.diag(rng.normal(size=idx.size))
        w, v = eigensolve(m)
        try:
            energies, overlaps = label_states(w, v, trunc, idx)
        except AmbiguousLabelingError:
            return
        picked = [int(np.flatnonzero(w == energies[lbl])[0]) for lbl in energies]
        assert len(set(picked)) == len(picked)
        for lbl, k in zip(energies, picked):
            row = int(np.flatnonzero(idx == lbl[0] * n_r + lbl[1])[0])
            # the label's overlap is its row's largest, in the column it took
            # (squared as an array, as label_states does: a scalar float64
            # ** 2 can round differently)
            assert overlaps[lbl] == np.max(v[row] ** 2) == (v[row] ** 2)[k]
            assert overlaps[lbl] >= numeric._OVERLAP_THRESHOLD


def _scaled(factors, d_j):
    """Energies of TABLE with l_j, c_j, l_r, c_r and b scaled by ``factors``."""
    names = ("l_j", "c_j", "l_r", "c_r", "b")
    scaled = {k: getattr(TABLE, k) * f for k, f in zip(names, factors)}
    return derive_energies(TABLE._replace(d_j=d_j, **scaled))


_AROUND_TABLE = st.tuples(*[st.floats(0.8, 1.2)] * 5)
# each factor lowers the qubit or raises the resonator: dispersive side
_DISPERSIVE = st.tuples(st.floats(1.0, 1.3), st.floats(1.0, 1.1), st.floats(0.95, 1.0),
                        st.floats(0.95, 1.0), st.floats(0.95, 1.05))
_ASYMMETRY = st.floats(0.01, 0.1) | st.floats(-0.1, -0.01)
_OBSERVABLES = ("omega_q_t", "omega_r_t", "alpha_q", "two_chi", "g_asymm", "two_chi_total")


class TestParitySectors:
    @pytest.mark.parametrize("symmetric", [True, False])
    @settings(max_examples=15, deadline=None)
    @given(_AROUND_TABLE, _ASYMMETRY, st.integers(6, 14), st.integers(6, 14))
    def test_entries_between_sectors_exactly_zero(self, symmetric, factors, d_j, n_q, n_r):
        d_j = 0.0 if symmetric else d_j
        trunc = Truncation(n_q, n_r)
        # the zero structure the blocked assembly rests on, in the oracle
        m = _oracle(_scaled(factors, d_j), trunc)
        m_q, m_r = np.divmod(np.arange(trunc.dim), n_r)
        parities = [m_q % 2, m_r % 2] if symmetric else [(m_q + m_r) % 2]
        same = np.logical_and.reduce([p[:, None] == p[None, :] for p in parities])
        assert np.all(m[~same] == 0.0)

        sectors = parity_sectors(trunc, per_mode=symmetric)
        assert len(sectors) == (4 if symmetric else 2)
        assert np.array_equal(np.sort(np.concatenate(sectors)), np.arange(trunc.dim))
        for idx in sectors:
            assert np.all(same[np.ix_(idx, idx)])

    @pytest.mark.parametrize("symmetric", [True, False])
    @settings(max_examples=8, deadline=None)
    @given(_DISPERSIVE, _ASYMMETRY, st.integers(10, 14))
    def test_blocked_matches_full_matrix(self, symmetric, factors, d_j, n):
        en = _scaled(factors, 0.0 if symmetric else d_j)
        trunc = Truncation(n, n)
        w, v = eigensolve(_full(en, trunc))
        full = extract_observables(label_states(w, v, trunc, np.arange(trunc.dim))[0], en)
        blocked = numeric_spectrum(en, trunc)
        for name in _OBSERVABLES:
            assert getattr(blocked, name) == pytest.approx(getattr(full, name), rel=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(_DISPERSIVE, _ASYMMETRY, st.integers(6, 20), st.integers(6, 20))
    def test_asymmetry_sign_flip_is_exact(self, factors, d_j, n_q, n_r):
        # each block at -d_j is D H D of the block at d_j, D = diag((-1)**m_q),
        # and rounding is symmetric under sign: the spectrum is bit-identical
        # and only g_asymm changes sign
        def spectrum(sign):
            try:
                return numeric_spectrum(_scaled(factors, sign * d_j), Truncation(n_q, n_r))
            except (NumericalError, ParameterError) as exc:
                return type(exc)

        plus, minus = spectrum(1.0), spectrum(-1.0)
        if isinstance(plus, type) or isinstance(minus, type):
            assert minus is plus
            return
        for name in ("omega_q_t", "omega_r_t", "alpha_q", "two_chi", "two_chi_total"):
            assert getattr(minus, name) == getattr(plus, name)
        assert minus.g_asymm == -plus.g_asymm

    def test_labels_only_rows_of_given_basis(self):
        trunc = Truncation(8, 8)
        h = _full(EN, trunc)
        idx = parity_sectors(trunc, per_mode=True)[0]  # m_q and m_r even
        w, v = eigensolve(h[np.ix_(idx, idx)])
        energies, overlaps = label_states(w, v, trunc, idx)
        assert set(energies) == set(overlaps) == {(0, 0), (2, 0)}


def _oracle(en, trunc, include_quartics=True):
    """The full quartic Hamiltonian, assembled with ``np.kron`` on the whole
    product basis: an independent oracle for ``build_hamiltonian``."""
    e_jsigma = en.e_jq
    x_q, n2_q = numeric._mode_operators(trunc.n_q, en.e_cq, en.e_jq)
    x_r, n2_r = numeric._mode_operators(trunc.n_r, en.e_cr, en.e_jr)
    x2_q, x2_r = x_q @ x_q, x_r @ x_r
    h_q = 4.0 * en.e_cq * n2_q + (en.e_jq / 2.0) * x2_q
    h_r = 4.0 * en.e_cr * n2_r + (en.e_jr / 2.0) * x2_r
    if include_quartics:
        h_q = h_q - (e_jsigma / 24.0) * (x2_q @ x2_q)
        h_r = h_r - (en.b**4 / 384.0) * e_jsigma * (x2_r @ x2_r)
    h = np.kron(h_q, np.eye(trunc.n_r)) + np.kron(np.eye(trunc.n_q), h_r)
    if include_quartics:
        h -= (en.b**2 / 16.0) * e_jsigma * np.kron(x2_q, x2_r)
    if en.d_j != 0.0:
        h -= en.d_j * (en.b / 2.0) * e_jsigma * np.kron(x_q, x_r)
    return 0.5 * (h + h.T)


class TestBlockAssembly:
    @pytest.mark.parametrize("symmetric", [True, False])
    @settings(max_examples=25, deadline=None)
    @given(_AROUND_TABLE, _ASYMMETRY, st.integers(4, 15), st.integers(4, 15))
    # odd and even n_r: at odd n_r the two sectors of a joint block keep
    # different numbers of resonator levels
    @example(factors=(1.0,) * 5, d_j=0.05, n_q=14, n_r=15)
    @example(factors=(1.0,) * 5, d_j=-0.05, n_q=15, n_r=14)
    def test_blocks_equal_oracle_submatrix(self, symmetric, factors, d_j, n_q, n_r):
        # every returned block, on the sectors numeric_spectrum solves, and
        # the blocks put together: the same bits as the oracle, and the same
        # eigenvalues
        en = _scaled(factors, 0.0 if symmetric else d_j)
        trunc = Truncation(n_q, n_r)
        full = _oracle(en, trunc)
        assert np.array_equal(_full(en, trunc), full)
        blocks = build_hamiltonian(en, trunc)
        sectors = parity_sectors(trunc, per_mode=symmetric)
        assert [idx.tolist() for idx, _ in blocks] == [idx.tolist() for idx in sectors]
        for idx, block in blocks:
            expected = full[np.ix_(idx, idx)]
            assert np.array_equal(block, expected)
            assert (np.linalg.eigvalsh(block).tobytes()
                    == np.linalg.eigvalsh(expected).tobytes())

    def test_spectrum_peak_memory_in_blocks(self):
        # 30x30 at d_j != 0: two 450x450 joint blocks. Both are built and
        # checked before the first solve, each sum is freed once its checked
        # copy exists and each block once solved, so the peak is about three
        # blocks (3.18 blocks measured)
        en, trunc = EN._replace(d_j=0.05), Truncation(30, 30)
        block = (trunc.dim // 2) ** 2 * np.dtype(float).itemsize
        numeric_spectrum(en, trunc)  # first-call allocations are not the spectrum's
        tracemalloc.start()
        try:
            numeric_spectrum(en, trunc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * block, f"{peak / block:.2f} blocks"

    def test_overflow_names_mode_and_elements_through_numeric_spectrum(self):
        # E_JQ/E_CQ underflows, so the qubit's zero-point amplitude overflows
        en = EN._replace(e_jq=1e-300, e_cq=1e300)
        with pytest.raises(ParameterError) as info:
            numeric_spectrum(en, Truncation(6, 6))
        msg = str(info.value)
        assert msg.startswith("Hamiltonian entries overflow: energy scales too large")
        assert "qubit mode: E_JQ/E_CQ = " in msg and "circuit.l_j, circuit.c_j" in msg
        assert "resonator" not in msg

    def test_resonator_overflow_names_resonator(self):
        en = EN._replace(d_j=0.05, e_jr=1e-300, e_cr=1e300)
        with pytest.raises(ParameterError, match=r"resonator mode: E_JR/E_CR = .*circuit\.l_r"):
            numeric_spectrum(en, Truncation(6, 6))

    @pytest.mark.parametrize("d_j", [0.0, 0.05])
    def test_one_build_and_one_operator_pair_per_spectrum(self, monkeypatch, d_j):
        # four blocks at d_j = 0, two otherwise, from one call that builds
        # each mode's operators once
        calls = {"build_hamiltonian": 0, "_mode_operators": 0}
        for name in calls:
            def counted(*args, _name=name, _original=getattr(numeric, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(numeric, name, counted)
        numeric_spectrum(EN._replace(d_j=d_j), Truncation(8, 8))
        assert calls == {"build_hamiltonian": 1, "_mode_operators": 2}

    @pytest.mark.parametrize("d_j", [0.0, 0.05])
    def test_asymmetry_check_fires_through_numeric_spectrum(self, monkeypatch, d_j):
        exact = numeric._mode_operators

        def skewed(n, e_c, e_j_mode):
            x, n2 = exact(n, e_c, e_j_mode)
            n2 = n2.copy()
            n2[0, 2] *= 1.0 + 1e-6  # a relative skew far above 1e-9
            return x, n2

        monkeypatch.setattr(numeric, "_mode_operators", skewed)
        with pytest.raises(EigensolveError, match=r"asymmetry .* exceeds 1e-9"):
            numeric_spectrum(EN._replace(d_j=d_j), Truncation(6, 6))
