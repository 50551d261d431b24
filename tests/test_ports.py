"""The package's numpy/math ports of SciPy 1.17.1 routines against SciPy
itself, bit for bit: the bounded TRF ``least_squares`` behind the mixture
fit, ``ndtri`` behind the shot noise and ``ndtr`` behind the overlap error;
and the one-SQUID fitter's bisection, which needs no oracle."""

import math

import numpy as np
import pytest
import scipy.optimize
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from quantromon import _cephes, _trf, flux, readout, rng
from quantromon.errors import DegenerateMixtureError, FitConvergenceError
from quantromon.params import CircuitParams, ReadoutParams, derive_energies

SAMPLE_C = ReadoutParams(omega_r=7.4e9, two_chi=1.37e6, kappa_ext=0.90e6,
                         kappa_int=0.38e6, nbar=30.0, tau=1.8e-6, t1=50e-6)


def _bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


def _scipy_lsq(fun, x0, lb, ub, xtol, ftol, max_nfev):
    """The call the mixture fit made before the port."""
    return scipy.optimize.least_squares(fun, x0, bounds=(lb, ub), xtol=xtol, ftol=ftol,
                                        gtol=None, max_nfev=max_nfev)


def _assert_same(port, ref):
    assert _bits(port.x) == _bits(ref.x)
    assert _bits(port.fun) == _bits(ref.fun)
    assert (port.status, port.nfev) == (ref.status, ref.nfev)


def _record_fit_calls(monkeypatch) -> list:
    """The list that collects every least-squares call the mixture fit makes
    from now on, as its arguments."""
    calls = []

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return _trf.least_squares(*args, **kwargs)

    monkeypatch.setattr(readout, "least_squares", record)
    return calls


@pytest.fixture
def fit_calls(monkeypatch):
    return _record_fit_calls(monkeypatch)


def _replay(call, **changes):
    """One recorded call run by the port and by SciPy, with ``changes`` to
    its keyword arguments; returns both results."""
    (fun, x0, lb, ub), kwargs = call
    kwargs = {**kwargs, **changes}
    x0 = kwargs.pop("x0", x0)
    return (_trf.least_squares(fun, x0, lb, ub, **kwargs),
            _scipy_lsq(fun, x0, lb, ub, **kwargs))


class TestLeastSquares:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1),
           n_shots=st.integers(4, 20000),
           tau=st.floats(0.1e-6, 4e-6),
           thermal_pop=st.floats(0.0, 0.2),
           noise_scale=st.floats(0.3, 3.0))
    def test_fit_matches_scipy_on_simulated_mixtures(self, seed, n_shots, tau,
                                                     thermal_pop, noise_scale):
        p = SAMPLE_C._replace(tau=tau, thermal_pop=thermal_pop,
                              noise_scale=noise_scale * SAMPLE_C.noise_scale)
        shots = [readout.simulate_shots(p, state, n_shots, seed) for state in (0, 1)]
        with pytest.MonkeyPatch.context() as patch:
            calls = _record_fit_calls(patch)
            try:
                readout.fit_double_gaussian(*shots)
            except (DegenerateMixtureError, FitConvergenceError):
                pass  # the fit ran; its verdict is not under test here
        (call,) = calls
        _assert_same(*_replay(call))

    def test_the_readout_commands_fits_match_scipy(self, fit_calls):
        # sample_c's readout at the taus of its tau_list, as readout-sim runs it
        taus = [0.2e-6, 0.6e-6, 1.0e-6, 1.4e-6, 1.8e-6, 2.4e-6, 3.0e-6]
        readout.error_vs_integration(SAMPLE_C, taus, 50000, 7)
        assert len(fit_calls) == len(taus)
        for call in fit_calls:
            port, ref = _replay(call)
            _assert_same(port, ref)
            assert port.status in (2, 3, 4)

    @pytest.mark.parametrize("index, side", [(2, "lb"), (4, "ub"), (5, "ub")])
    def test_start_on_a_bound(self, fit_calls, index, side):
        readout.fit_double_gaussian(readout.simulate_shots(SAMPLE_C, 0, 5000, 3),
                                    readout.simulate_shots(SAMPLE_C, 1, 5000, 3))
        (call,) = fit_calls
        (_, x0, lb, ub), _ = call
        x0 = x0.copy()
        x0[index] = (lb if side == "lb" else ub)[index]
        _assert_same(*_replay(call, x0=x0))

    def test_evaluation_cap_is_status_0_and_a_convergence_error(self, monkeypatch, fit_calls):
        monkeypatch.setattr(readout, "_MAX_NFEV", 4)
        shots = [readout.simulate_shots(SAMPLE_C, state, 5000, 21) for state in (0, 1)]
        with pytest.raises(FitConvergenceError, match=r"evaluation cap \(4\)"):
            readout.fit_double_gaussian(*shots)
        (call,) = fit_calls
        for max_nfev in (1, 2, 4, 9):
            port, ref = _replay(call, max_nfev=max_nfev)
            _assert_same(port, ref)
            assert port.status == 0 and port.nfev == max_nfev

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_residuals_not_finite_at_the_start(self, bad):
        def fun(x):
            return np.array([x[0] - 1.0, bad, x[1]])

        lb, ub = np.array([-np.inf, 0.0]), np.array([np.inf, 1.0])
        x0 = np.array([0.5, 0.5])
        # SciPy differences the residuals before it checks them (inf - inf);
        # the port checks first
        with pytest.raises(ValueError) as ref, np.errstate(invalid="ignore"):
            _scipy_lsq(fun, x0, lb, ub, 1e-8, 1e-12, 100)
        with pytest.raises(ValueError) as port:
            _trf.least_squares(fun, x0, lb, ub, 1e-8, 1e-12, 100)
        assert str(port.value) == str(ref.value)

    def test_a_step_into_non_finite_residuals_shrinks_the_region(self):
        # the residuals are not finite beyond x = 2: the step back is SciPy's
        def fun(x):
            return np.array([x[0] - 3.0, (x[0] - 3.0) / np.sqrt(max(2.0 - x[0], 0.0)) if x[0] < 2.0
                             else np.inf, x[1] - 0.2])

        lb, ub = np.array([-10.0, 0.0]), np.array([10.0, 1.0])
        x0 = np.array([0.0, 0.9])
        with np.errstate(divide="ignore"):
            _assert_same(_trf.least_squares(fun, x0, lb, ub, 1e-8, 1e-12, 200),
                         _scipy_lsq(fun, x0, lb, ub, 1e-8, 1e-12, 200))


class TestNdtri:
    @pytest.mark.parametrize("seed, stream", [(0, 0), (1, 1), (2**63 + 5, 0), (7, 1)])
    def test_philox_chunks(self, seed, stream):
        u = rng.uniforms(seed, stream, 3 * readout._SHOT_CHUNK, readout._SHOT_CHUNK)
        for column in u.T:
            y = np.ascontiguousarray(column)
            assert _bits(_cephes.ndtri(y.copy())) == _bits(scipy.special.ndtri(y))

    def test_branch_edges(self):
        e = math.exp(-2.0)
        switch = math.exp(-32.0)  # z = sqrt(-2 log y) = 8, about 1.2664e-14
        near_switch = np.linspace(0.999 * switch, 1.001 * switch, 2001)
        y = np.concatenate([
            [0.5 * 2**-53, 2**-53, 1 - 2**-53, 0.5,
             np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0)],
            [np.nextafter(e, 0.0), e, np.nextafter(e, 1.0)],
            [np.nextafter(1 - e, 0.0), 1 - e, np.nextafter(1 - e, 1.0)],
            near_switch, 1.0 - near_switch,
        ])
        assert _bits(_cephes.ndtri(y.copy())) == _bits(scipy.special.ndtri(y))

    def test_overwrites_its_argument(self):
        y = np.array([0.1, 0.5, 0.9])
        assert _cephes.ndtri(y) is y


class TestNdtr:
    @staticmethod
    def _around(v, n=40):
        """``n`` doubles on each side of ``v``, ``v`` included."""
        below, above = [v], [v]
        for _ in range(n):
            below.append(np.nextafter(below[-1], -np.inf))
            above.append(np.nextafter(above[-1], np.inf))
        return below + above

    def test_grid(self):
        # |a| = 1/sqrt(2) and 1 (ndtr's erf/erfc switch), sqrt(2) (erfc's
        # switch to 1 - erf), 8 sqrt(2) (erfc's second approximation), +-38
        # (the tail near underflow) and signed zeros
        points = [0.0, -0.0]
        for v in (1 / math.sqrt(2), 1.0, math.sqrt(2), 8 * math.sqrt(2), 38.0):
            points += self._around(v) + self._around(-v)
        rs = np.random.default_rng(5)
        a = np.concatenate([points, np.linspace(-40.0, 40.0, 20001),
                            rs.normal(0.0, 4.0, 20000), [math.inf, -math.inf]])
        port = np.array([_cephes.ndtr(float(v)) for v in a])
        assert _bits(port) == _bits(scipy.special.ndtr(a))
        assert math.copysign(1.0, _cephes.ndtr(-0.0)) == 1.0
        assert math.isnan(_cephes.ndtr(math.nan))


class TestSolveEJsigma:
    """The one-SQUID fitter's root: the least double in ``[1e6, 1e13]`` whose
    qubit frequency reaches the target."""

    EN = derive_energies(CircuitParams(l_j=8.2e-9, c_j=56.88e-15, l_r=0.546e-9,
                                       c_r=781.8e-15, b=0.405, d_j=-0.30))
    F_LO = flux._qubit_frequency(EN, 1e6)
    F_HI = flux._qubit_frequency(EN, 1e13)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(F_LO, F_HI))
    def test_least_double_that_meets_the_target(self, f_q_zero):
        e = flux._solve_e_jsigma(self.EN, f_q_zero)
        assert 1e6 <= e <= 1e13
        assert flux._qubit_frequency(self.EN, e) >= f_q_zero
        below = math.nextafter(e, 0.0)
        assert e == 1e6 or flux._qubit_frequency(self.EN, below) < f_q_zero

    def test_bracket_ends(self):
        assert flux._solve_e_jsigma(self.EN, self.F_LO) == 1e6
        e = flux._solve_e_jsigma(self.EN, self.F_HI)
        assert e <= 1e13
        assert flux._qubit_frequency(self.EN, math.nextafter(e, 0.0)) < self.F_HI

    def test_sample_b_fit_is_pinned(self):
        cfg = flux.fit_one_squid(self.EN, f_q_zero=5.205e9, d_j_zero=-0.30, anchor_n=5,
                                 d_j_anchor=-0.0152)
        assert cfg.e_j1_zero == 7426647609.825769
        assert cfg.e_j2_zero == 13792345561.105001
        assert cfg.area_ratio_a == 0.0625
