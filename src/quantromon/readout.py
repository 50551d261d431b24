"""Dispersive single-shot readout: steady-state reflection, deterministic shot
simulation with T1 decay, simultaneous double-Gaussian histogram fitting, and
fidelity/error reports.

The shot model is a calibrated one, not a first-principles prediction: the
two cavity pointer states are the steady-state reflection amplitudes scaled
by sqrt(nbar), shots are projected on the line through the two pointers, and
the additive noise is ``noise_scale/sqrt(kappa_ext*tau)`` with ``noise_scale``
calibrated against a measured fidelity. Excited-state shots decay at an
exponential time t and record the time-weighted mixture of the two pointers
(uniform integration weights).
"""

from __future__ import annotations

import io
import math
import os
import warnings
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import rng
from .errors import (
    DegenerateMixtureError,
    FitConvergenceError,
    NumericalError,
    ParameterError,
    ThresholdError,
)
from .params import ReadoutParams

__all__ = [
    "ShotSet",
    "GaussianMixtureFit",
    "FidelityReport",
    "IntegrationPoint",
    "reflection_coefficient",
    "phase_separation",
    "pointer_means",
    "simulate_shots",
    "export_shots_csv",
    "import_shots_csv",
    "fit_double_gaussian",
    "threshold",
    "fidelity_report",
    "error_vs_integration",
]


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
    i.e. 360 deg minus the principal-branch gap.
    """
    if kappa_ext + kappa_int <= 0.0:
        raise ParameterError("total linewidth must be > 0")
    chi = two_chi / 2.0
    s_plus = reflection_coefficient(chi, 0.0, kappa_ext, kappa_int)
    gap = 2.0 * math.degrees(np.angle(s_plus))  # principal-branch gap, symmetric
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


@dataclass(frozen=True)
class ShotSet:
    """Projected quadrature values for shots prepared in one qubit state."""

    prepared_state: int
    values: np.ndarray = field(repr=False)
    seed: int
    params: ReadoutParams

    def __post_init__(self):
        _check_state("prepared_state", self.prepared_state)


def _check_state(name: str, value) -> None:
    """A prepared qubit state is the integer 0 or 1; a bool or float is not."""
    if type(value) is not int or value not in (0, 1):
        raise ParameterError(f"{name} must be 0 or 1, got {value!r}")


def _noise_sigma(p: ReadoutParams) -> float:
    if p.kappa_ext <= 0.0:
        raise ParameterError("shot simulation requires kappa_ext > 0")
    return p.noise_scale / math.sqrt(p.kappa_ext * p.tau)


def simulate_shots(p: ReadoutParams, prepared: int, n_shots: int, seed: int) -> ShotSet:
    """Generate a deterministic ShotSet.

    Shot i draws its randoms from the stream ``(seed, prepared)`` at counter
    i: one batch of counters 0 to n_shots - 1, so any evaluation order (or a
    concurrent split over counter ranges) is bit-identical. Excited shots that
    decay at t < tau record the uniform-weight mixture
    ``(t*m1 + (tau - t)*m0)/tau``.
    """
    _check_state("prepared", prepared)
    if n_shots < 1:
        raise ParameterError(f"n_shots must be >= 1, got {n_shots!r}")
    from scipy.special import ndtri  # deferred: importing readout loads no scipy

    m0, m1 = pointer_means(p)
    sigma = _noise_sigma(p)
    u = rng.uniforms(seed, prepared, 0, n_shots)

    if prepared == 1:
        excited = np.ones(n_shots, dtype=bool)
    else:
        excited = u[:, 2] < p.thermal_pop

    base = np.full(n_shots, m0)
    # a huge t1 overflows the decay time to inf, which is no decay (weight 1);
    # a huge noise_scale overflows shots to +-inf, which the fit's start check
    # reports
    with np.errstate(over="ignore"):
        noise = ndtri(u[:, 0]) * sigma
        if np.any(excited):
            t_decay = -p.t1 * np.log(u[:, 1][excited])
            weight = np.minimum(t_decay / p.tau, 1.0)
            base[excited] = weight * m1 + (1.0 - weight) * m0
        values = base + noise
    return ShotSet(prepared_state=prepared, values=values, seed=seed, params=p)


# ---------------------------------------------------------------------------
# CSV import/export (one value per line; params and seed in the header)
# ---------------------------------------------------------------------------

_CSV_CHUNK = 65536  # values formatted per write; bounds the text held at once
# A file with at least this many values (export) or bytes of value lines
# (import) has half of its lines formatted or parsed by a forked child. On a
# 2-vCPU Xeon VM the child pays off from 20k-50k values but saves under
# 20 ms there, inside the host's noise; at these sizes (about 2.4 MB of
# text) it saves 30-50 ms, and the CLI's default 50k-shot files stay serial
_FORK_MIN_VALUES = 2 * _CSV_CHUNK
_FORK_MIN_BYTES = 2 * 2**20


def _format(x: float) -> str:
    return repr(float(x))


def _can_fork() -> bool:
    """Whether a helper child may be forked: ``os.fork`` exists and this
    process runs one OS thread. A child forked beside other threads (a BLAS
    pool, say) can inherit a lock that one of them held."""
    if not hasattr(os, "fork"):
        return False
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:  # no /proc: the thread count is unknown
        return False


def _fork(work) -> tuple[int, int] | None:
    """Start a forked child that runs ``work()`` and sends the bytes it
    returns through a pipe; the child's pid and the pipe's read end, or None
    when no child could be started. Hand the result to :func:`_collect` in a
    ``finally``.

    The child imports nothing and leaves the parent's files alone, and it
    always ends with ``os._exit``: no inherited buffer is flushed twice, and
    no exception of its own reaches a handler of the parent.
    """
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            data = work()
            with open(write_end, "wb") as pipe:
                pipe.write(len(data).to_bytes(8, "little"))
                pipe.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    return pid, read_end


def _collect(child: tuple[int, int] | None) -> bytes | None:
    """Read the bytes a child of :func:`_fork` sent and reap it; None when
    there was no child or it failed in any way: a nonzero exit status, a
    signal, fewer bytes than it announced, or a status this process cannot
    read because the child was reaped elsewhere."""
    if child is None:
        return None
    pid, read_end = child
    try:
        with open(read_end, "rb") as pipe:
            head = pipe.read(8)
            size = int.from_bytes(head, "little")
            # one buffer of the announced size, not one grown read by read
            data = pipe.read(size) if len(head) == 8 else b""
    finally:
        try:
            status = os.waitpid(pid, 0)[1]
        except ChildProcessError:  # reaped elsewhere (SIGCHLD ignored, say): status unknown
            status = -1
    if status != 0 or len(head) != 8 or len(data) != size:
        return None
    return data


def _lines(values: np.ndarray, start: int, stop: int):
    """The text of value lines ``start`` to ``stop - 1``, each ended by LF,
    in chunks of at most :data:`_CSV_CHUNK` lines."""
    for i in range(start, stop, _CSV_CHUNK):
        yield "\n".join(map(repr, values[i:min(i + _CSV_CHUNK, stop)].tolist())) + "\n"


def export_shots_csv(shots: ShotSet, path) -> None:
    """Write a ShotSet with full round-trip precision, LF line endings.

    The header holds the prepared state, the seed and every
    :class:`ReadoutParams` field in declaration order. Each value is written
    as ``repr(float(v))``, the shortest text that reads back to the same
    double. In a single-threaded process on Linux, a forked child formats
    the second half of a large file's lines; the bytes are the same.
    """
    values = np.asarray(shots.values, dtype=np.float64)
    n = values.size
    mid = n // 2 if n >= _FORK_MIN_VALUES and _can_fork() else n
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(f"# prepared_state={shots.prepared_state}\n")
        f.write(f"# seed={shots.seed}\n")
        for param in fields(ReadoutParams):
            value = getattr(shots.params, param.name)
            f.write(f"# {param.name}={'' if value is None else _format(value)}\n")
        f.write("value\n")
        child = _fork(lambda: "".join(_lines(values, mid, n)).encode()) if mid < n else None
        try:
            f.writelines(_lines(values, 0, mid))
        finally:
            tail = _collect(child)
        if tail is None:
            f.writelines(_lines(values, mid, n))
        else:
            f.flush()
            f.buffer.write(tail)


def _parse_lines(path, start: int, stop: int | None = None) -> np.ndarray:
    """The numbers on the lines from byte ``start`` of the file to byte
    ``stop`` (the end of the file when None), one row per line; ``#``
    comments and blank lines are skipped. A range that stops before the end
    of the file is read into memory; one that runs to the end is streamed."""
    with open(path, "rb") as f:
        f.seek(start)
        source = f if stop is None else io.BytesIO(f.read(stop - start))
        text = io.TextIOWrapper(source, encoding="utf-8", newline="")
        return np.loadtxt(text, dtype=np.float64, ndmin=2)


def _shape_and_values(a: np.ndarray) -> bytes:
    """A 2-D float64 array as bytes: its shape as two int64, then its values."""
    return np.array(a.shape, dtype=np.int64).tobytes() + a.tobytes()


def _parse_halves(path, start: int, size: int) -> np.ndarray:
    """:func:`_parse_lines` from byte ``start`` of a file of ``size`` bytes,
    with the lines after its middle parsed by a forked child. It raises a
    ``ValueError`` (or a warning turned into an error) wherever either half
    fails, but does not name the fault as the serial parse does."""
    with open(path, "rb") as f:
        f.seek((start + size) // 2)
        cut = f.tell() + f.read(4096).index(b"\n") + 1  # a line boundary
    child = _fork(lambda: _shape_and_values(_parse_lines(path, cut)))
    try:
        first = _parse_lines(path, start, cut)
    finally:
        data = _collect(child)
    if data is None:
        second = _parse_lines(path, cut)
    else:
        rows, cols = np.frombuffer(data, dtype=np.int64, count=2)
        second = np.frombuffer(data, dtype=np.float64, offset=16).reshape(rows, cols)
    if second.shape[1] != first.shape[1]:
        raise ValueError("the two halves differ in columns")
    # grow the first half's own array in place, as np.loadtxt grows its
    # result: a new array for both halves could leave glibc's heap untrimmed
    # after a large import, which raised readout-stream's peak RSS by 8%.
    # first is a fresh array that no view shares, so refcheck may be off
    rows_first = len(first)
    first.resize((rows_first + len(second), first.shape[1]), refcheck=False)
    first[rows_first:] = second
    return first


def _read_values(path, first_line: int, start: int, size: int) -> np.ndarray:
    """Parse the value lines of a shot CSV of ``size`` bytes, from byte
    ``start``, the start of line ``first_line``, to the end.

    A large file on a single-threaded Linux process is parsed in two halves
    (:func:`_parse_halves`); if that fails or warns in any way, the whole
    range is parsed again here, so the values, warnings and messages are
    those of the serial parse.
    """
    if size - start >= _FORK_MIN_BYTES and _can_fork():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                values = _parse_halves(path, start, size)
            except (ValueError, Warning):
                values = None  # the serial parse below names the fault
        if values is not None and values.shape[1] == 1:
            return values[:, 0]
    try:
        values = _parse_lines(path, start)
    except UnicodeDecodeError:
        raise  # not a bad value: import_shots_csv names the byte
    except ValueError as exc:
        raise _bad_value_error(path, first_line, exc) from None
    if values.shape[1] != 1:
        raise ParameterError(f"malformed shot CSV {path}: expected one value per "
                             f"line, found {values.shape[1]} columns")
    return values[:, 0]


def _bad_value_error(path, first_line: int, exc: ValueError) -> ParameterError:
    """Name the first line at or after ``first_line`` that is not one number."""
    with open(path, "r", encoding="utf-8", newline="") as f:
        for lineno, line in enumerate(f, start=1):
            text = line.split("#", 1)[0].strip()
            if lineno < first_line or not text:
                continue
            try:
                float(text)
            except ValueError:
                return ParameterError(
                    f"malformed shot CSV {path}, line {lineno}: {text!r} is not a number"
                )
    return ParameterError(f"malformed shot CSV values in {path}: {exc}")


def _undecodable_error(path) -> ParameterError:
    """Name the line and the file offset of the first byte of the file that
    does not decode as UTF-8."""
    with open(path, "rb") as f:
        data = f.read()
    offset = 0
    for lineno, line in enumerate(data.splitlines(keepends=True), start=1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError as exc:
            return ParameterError(
                f"malformed shot CSV {path}: 'utf-8' codec can't decode byte "
                f"0x{line[exc.start]:02x} on line {lineno}, at file offset "
                f"{offset + exc.start}: {exc.reason}")
        offset += len(line)
    return ParameterError(f"malformed shot CSV {path}: not UTF-8 text")


def import_shots_csv(path) -> ShotSet:
    """Parse a ShotSet written by :func:`export_shots_csv` (or a compatible
    real measurement record).

    ``# key=value`` header lines, blank lines and one ``value`` column title
    come first; from the first number on, the file holds one number per line
    (blank lines and ``#`` comments are skipped). Any line ending is
    accepted. A value that is not a number raises :class:`ParameterError`
    naming its line, and a file that is not UTF-8 one naming the line and
    the file offset of the first byte that does not decode. In a
    single-threaded process on Linux, a forked child parses half of a large
    file's lines; the values and messages are the same.
    """
    header: dict[str, str] = {}
    values = np.empty(0)
    try:
        with open(path, "r", encoding="utf-8", newline="") as f:
            offset = 0  # bytes before the current line
            for lineno, line in enumerate(f, start=1):
                text = line.strip()
                if text.startswith("#"):
                    key, _, val = text.lstrip("# ").partition("=")
                    header[key.strip()] = val.strip()
                elif text and text != "value":
                    values = _read_values(path, lineno, offset, os.fstat(f.fileno()).st_size)
                    break
                offset += len(line.encode("utf-8"))
    except UnicodeDecodeError:
        raise _undecodable_error(path) from None
    try:
        kwargs = {}
        for param in fields(ReadoutParams):
            raw = header.get(param.name, "")
            kwargs[param.name] = (None if raw == "" and param.default is None
                                  else float(raw))
        params = ReadoutParams(**kwargs)
        prepared = int(header["prepared_state"])
        seed = int(header["seed"])
    except (KeyError, ValueError) as exc:
        raise ParameterError(f"malformed shot CSV header in {path}: {exc}") from exc
    return ShotSet(prepared_state=prepared, values=values, seed=seed, params=params)


# ---------------------------------------------------------------------------
# Double-Gaussian fitting, thresholding, and error reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianMixtureFit:
    """Simultaneous two-histogram mixture fit.

    State-0 counts are modeled as a0*N(mu0, sigma0) + (1-a0)*N(mu1, sigma1)
    and state-1 counts as (1-a1)*N(mu0, sigma0) + a1*N(mu1, sigma1).
    """

    mu0: float
    mu1: float
    sigma0: float
    sigma1: float
    a0: float
    a1: float
    residual_norm: float


def _normal_pdf(x: np.ndarray, mu: float, sigma: float) -> np.ndarray:
    z = (x - mu) / sigma
    return np.exp(-0.5 * z * z) / (sigma * math.sqrt(2.0 * math.pi))


def _fd_bin_edges(pooled: np.ndarray, q25: float, q75: float) -> np.ndarray:
    """Freedman-Diaconis bin edges over the pooled data (shared by both
    states), from its quartiles ``q25`` and ``q75``."""
    lo, hi = float(np.min(pooled)), float(np.max(pooled))
    if hi <= lo:
        hi = lo + 1.0
    width = 2.0 * (q75 - q25) * pooled.size ** (-1.0 / 3.0)
    if width <= 0.0:
        n_bins = 10
    else:
        n_bins = int(np.clip(math.ceil((hi - lo) / width), 10, 512))
    return np.linspace(lo, hi, n_bins + 1)


_MAX_NFEV = 2000  # evaluation cap of the mixture fit


def _spread(side: np.ndarray) -> float:
    """Standard deviation of one side of the pooled shots about their median;
    NaN when the side is empty (all shots equal, or a NaN median)."""
    return float(np.std(side)) if side.size else math.nan


def fit_double_gaussian(shots0: ShotSet, shots1: ShotSet) -> GaussianMixtureFit:
    """Simultaneous least-squares fit of both state histograms.

    Histograms are density-normalized on shared Freedman-Diaconis bins.
    Initial means come from the 25th/75th percentiles of the pooled data,
    initial widths from the per-side deviations about the pooled median, and
    both dominant weights start at 0.95. Convergence: relative parameter step
    below 1e-8 or residual stagnation; hitting the cap of 2000 evaluations
    raises :class:`FitConvergenceError`, an indistinguishable pair of shot
    sets raises :class:`DegenerateMixtureError`, and shots whose start lies
    outside the bounds (overflowed or constant values) raise
    :class:`NumericalError`.
    """
    from scipy.optimize import least_squares  # deferred: importing readout loads no scipy

    x0v = np.asarray(shots0.values, dtype=float)
    x1v = np.asarray(shots1.values, dtype=float)
    if x0v.size == 0 or x1v.size == 0:
        raise ParameterError("both shot sets must be nonempty")
    if x0v.size + x1v.size < 8:  # fewer samples than fit parameters
        raise DegenerateMixtureError(
            f"{x0v.size + x1v.size} shots cannot constrain a six-parameter mixture"
        )
    pooled = np.concatenate([x0v, x1v])
    # overflowed shots (+-inf, or a spread that overflows) give a start that
    # is not finite, and (near-)constant ones start a width below its floor;
    # the check below reports either, so numpy need not warn on the way
    with np.errstate(all="ignore"):
        mu0_init, mu1_init = np.percentile(pooled, [25.0, 75.0])
        med = np.median(pooled)
        scale = max(float(np.std(pooled)), 1e-12)
        s0_init = _spread(pooled[pooled <= med]) or scale
        s1_init = _spread(pooled[pooled > med]) or scale
    p_init = np.array([mu0_init, mu1_init, s0_init, s1_init, 0.95, 0.95])
    lower = [-np.inf, -np.inf, 1e-12 * scale, 1e-12 * scale, 0.0, 0.0]
    upper = [np.inf, np.inf, np.inf, np.inf, 1.0, 1.0]
    if not np.all(np.isfinite(p_init) & (lower <= p_init)):
        raise NumericalError(
            f"mixture fit cannot start: the shots put the initial parameters "
            f"{p_init.tolist()} outside the bounds {lower}")

    edges = _fd_bin_edges(pooled, mu0_init, mu1_init)
    centers = 0.5 * (edges[:-1] + edges[1:])
    hist0 = np.histogram(x0v, bins=edges, density=True)[0]
    hist1 = np.histogram(x1v, bins=edges, density=True)[0]

    def residuals(p):
        mu0, mu1, s0, s1, a0, a1 = p
        g0 = _normal_pdf(centers, mu0, s0)
        g1 = _normal_pdf(centers, mu1, s1)
        model0 = a0 * g0 + (1.0 - a0) * g1
        model1 = (1.0 - a1) * g0 + a1 * g1
        return np.concatenate([model0 - hist0, model1 - hist1])

    result = least_squares(residuals, p_init, bounds=(lower, upper),
                           xtol=1e-8, ftol=1e-12, gtol=None, max_nfev=_MAX_NFEV)
    if result.status == 0:
        raise FitConvergenceError(
            f"mixture fit hit the evaluation cap ({_MAX_NFEV}) "
            f"with residual norm {np.linalg.norm(result.fun):.3e}"
        )

    mu0, mu1, s0, s1, a0, a1 = result.x
    if a0 < 0.5:  # relabeling symmetry: make component 0 the state-0 majority
        mu0, mu1, s0, s1 = mu1, mu0, s1, s0
        a0, a1 = 1.0 - a0, 1.0 - a1

    sigma_mean = 0.5 * (s0 + s1)
    if abs(mu1 - mu0) < 0.1 * sigma_mean or (a0 + a1) < 1.2:
        raise DegenerateMixtureError(
            "fitted means collapse: the two shot sets are not bimodal "
            f"(|mu1-mu0|={abs(mu1 - mu0):.3g}, sigmas=({s0:.3g}, {s1:.3g}), "
            f"a0={a0:.3f}, a1={a1:.3f})"
        )
    return GaussianMixtureFit(
        mu0=float(mu0), mu1=float(mu1), sigma0=float(s0), sigma1=float(s1),
        a0=float(a0), a1=float(a1),
        residual_norm=float(np.linalg.norm(result.fun)),
    )


def threshold(fit: GaussianMixtureFit) -> float:
    """Intersection of the two unit-weight fitted normal densities.

    Solves N(x; mu0, sigma0) = N(x; mu1, sigma1) and returns the root strictly
    between the means; equal widths give the midpoint exactly.
    """
    mu0, mu1, s0, s1 = fit.mu0, fit.mu1, fit.sigma0, fit.sigma1
    if mu0 == mu1:
        raise ThresholdError("mu0 == mu1: no demarcation exists")
    if abs(s0 - s1) <= 1e-12 * (s0 + s1):
        return 0.5 * (mu0 + mu1)
    a = 1.0 / s1**2 - 1.0 / s0**2
    b = -2.0 * (mu1 / s1**2 - mu0 / s0**2)
    c = mu1**2 / s1**2 - mu0**2 / s0**2 - 2.0 * math.log(s0 / s1)
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        raise ThresholdError("density intersection has no real solution")
    lo, hi = min(mu0, mu1), max(mu0, mu1)
    for root in ((-b + math.sqrt(disc)) / (2.0 * a), (-b - math.sqrt(disc)) / (2.0 * a)):
        if lo < root < hi:
            return root
    raise ThresholdError(
        f"no density intersection strictly between the means ({lo:.4g}, {hi:.4g})"
    )


@dataclass(frozen=True)
class FidelityReport:
    """Assignment-error decomposition at a fixed threshold.

    ``eps_id`` is the overlap error of the two fitted unit Gaussians across
    the threshold (sum of both tails); ``eps_01``/``eps_10`` are the residual
    empirical errors beyond that overlap, floored at zero.
    """

    threshold: float
    p01: float
    p10: float
    fidelity: float
    eps_id: float
    eps_01: float
    eps_10: float


def _assignment_errors(shots0: ShotSet, shots1: ShotSet, thr: float,
                       sign: float) -> tuple[float, float]:
    """Empirical (P(0|1), P(1|0)) when shots beyond ``thr`` in the direction
    ``sign`` are assigned to state 1."""
    p10 = float(np.mean(sign * (np.asarray(shots0.values) - thr) > 0.0))
    p01 = float(np.mean(~(sign * (np.asarray(shots1.values) - thr) > 0.0)))
    return p01, p10


def fidelity_report(shots0: ShotSet, shots1: ShotSet, fit: GaussianMixtureFit,
                    thr: float) -> FidelityReport:
    """Empirical P(0|1), P(1|0) and the fidelity 1 - (P(0|1)+P(1|0))/2."""
    from scipy.special import ndtr  # deferred: importing readout loads no scipy

    sign = 1.0 if fit.mu1 >= fit.mu0 else -1.0
    p01, p10 = _assignment_errors(shots0, shots1, thr, sign)

    # single-Gaussian tails across the threshold
    z0 = sign * (thr - fit.mu0) / fit.sigma0
    z1 = sign * (fit.mu1 - thr) / fit.sigma1
    tail0 = float(ndtr(-z0))  # fitted state-0 density beyond the threshold
    tail1 = float(ndtr(-z1))  # fitted state-1 density below the threshold
    return FidelityReport(
        threshold=thr,
        p01=p01,
        p10=p10,
        fidelity=1.0 - (p01 + p10) / 2.0,
        eps_id=tail0 + tail1,
        eps_01=max(p01 - tail1, 0.0),
        eps_10=max(p10 - tail0, 0.0),
    )


@dataclass(frozen=True)
class IntegrationPoint:
    """Error budget at one integration time; ``degenerate`` flags rows whose
    mixture fit collapsed (statistics too poor to decompose errors)."""

    tau: float
    fidelity: float
    eps_id: float
    eps_01: float
    eps_10: float
    degenerate: bool = False


def _row_seed(seed: int, index: int) -> int:
    return (seed * 1000003 + index) & 0xFFFFFFFFFFFFFFFF


def error_vs_integration(p: ReadoutParams, tau_list: list[float], n_shots: int,
                         seed: int) -> list[IntegrationPoint]:
    """Simulate -> fit -> report for each integration time; deterministic."""
    points: list[IntegrationPoint] = []
    for i, tau in enumerate(tau_list):
        p_tau = replace(p, tau=tau)
        row_seed = _row_seed(seed, i)
        s0 = simulate_shots(p_tau, 0, n_shots, row_seed)
        s1 = simulate_shots(p_tau, 1, n_shots, row_seed)
        try:
            fit = fit_double_gaussian(s0, s1)
            thr = threshold(fit)
            report = fidelity_report(s0, s1, fit, thr)
        except (DegenerateMixtureError, FitConvergenceError, ThresholdError):
            # too few/indistinct shots: fall back to an empirical midpoint split
            m0 = float(np.mean(s0.values))
            m1 = float(np.mean(s1.values))
            p01, p10 = _assignment_errors(s0, s1, 0.5 * (m0 + m1),
                                          1.0 if m1 >= m0 else -1.0)
            points.append(IntegrationPoint(
                tau=tau, fidelity=1.0 - (p01 + p10) / 2.0,
                eps_id=math.nan, eps_01=math.nan, eps_10=math.nan,
                degenerate=True,
            ))
            continue
        points.append(IntegrationPoint(
            tau=tau, fidelity=report.fidelity, eps_id=report.eps_id,
            eps_01=report.eps_01, eps_10=report.eps_10,
        ))
    return points
