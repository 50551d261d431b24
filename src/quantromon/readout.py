"""Dispersive single-shot readout: deterministic shot simulation with T1
decay, simultaneous double-Gaussian histogram fitting, and fidelity/error
reports.

The shot model is a calibrated one, not a first-principles prediction: the
two cavity pointer states are the steady-state reflection amplitudes scaled
by sqrt(nbar) (:func:`quantromon.analytic.pointer_means`), shots are
projected on the line through the two pointers, and the additive noise is
``noise_scale/sqrt(kappa_ext*tau)`` with ``noise_scale`` calibrated against
a measured fidelity. Excited-state shots decay at an exponential time t and
record the time-weighted mixture of the two pointers (uniform integration
weights).
"""

from __future__ import annotations

import io
import math
import os
import signal
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import rng
from .analytic import pointer_means
from .errors import (
    DegenerateMixtureError,
    FitConvergenceError,
    NumericalError,
    ParameterError,
    ThresholdError,
    check_key_word,
    checked,
    io_fault,
    is_int,
)
from .params import ReadoutParams

__all__ = [
    "ShotSet",
    "GaussianMixtureFit",
    "FidelityReport",
    "IntegrationPoint",
    "simulate_shots",
    "export_shots_csv",
    "import_shots_csv",
    "fit_double_gaussian",
    "threshold",
    "fidelity_report",
    "error_vs_integration",
]


@checked
class ShotSet(NamedTuple):
    """Projected quadrature values for shots prepared in one qubit state.

    ``prepared_state`` is 0 or 1, ``values`` a 1-D sequence of numbers,
    stored as a float64 array (a 1-D float64 array is kept, not copied), and
    ``seed`` an integer in ``[0, 2**64)``, the seeds a simulation accepts;
    anything else raises :class:`ParameterError` naming it. The checks and
    the conversion of ``values`` run again on ``_replace``
    (:func:`~quantromon.errors.checked`); the repr leaves ``values`` out."""

    prepared_state: int
    values: np.ndarray
    seed: int
    params: ReadoutParams

    def _check(self):
        _check_state("prepared_state", self.prepared_state)
        try:
            values = np.asarray(self.values, dtype=np.float64)
        except (TypeError, ValueError):
            raise ParameterError("values must be numbers") from None
        if values.ndim != 1:
            raise ParameterError(f"values must be 1-D, got shape {values.shape}")
        check_key_word("seed", self.seed)
        return self.prepared_state, values, self.seed, self.params

    def __repr__(self) -> str:
        return (f"ShotSet(prepared_state={self.prepared_state!r}, seed={self.seed!r}, "
                f"params={self.params!r})")


def _check_state(name: str, value) -> None:
    """A prepared qubit state is the integer 0 or 1."""
    if not (is_int(value) and value in (0, 1)):
        raise ParameterError(f"{name} must be 0 or 1, got {value!r}")


def _noise_sigma(p: ReadoutParams) -> float:
    if p.kappa_ext <= 0.0:
        raise ParameterError("shot simulation requires kappa_ext > 0")
    return p.noise_scale / math.sqrt(p.kappa_ext * p.tau)


# Counters drawn per step of simulate_shots: 2 MiB of uniforms, which fits a
# 4 MiB L2 and bounds what a call holds beside its values
_SHOT_CHUNK = 65536


def simulate_shots(p: ReadoutParams, prepared: int, n_shots: int, seed: int) -> ShotSet:
    """Generate a deterministic ShotSet.

    Shot i draws its randoms from the stream ``(seed, prepared)`` at counter
    i, so any evaluation order (or a concurrent split over counter ranges) is
    bit-identical; the counters are drawn :data:`_SHOT_CHUNK` at a time, so a
    call holds the values and one chunk. Excited shots that decay at t < tau
    record the uniform-weight mixture ``(t*m1 + (tau - t)*m0)/tau``.

    ``prepared`` is 0 or 1 and ``n_shots`` lies in ``[1, 2**64]``, each an
    integer by :func:`~quantromon.errors.is_int`, as is the seed
    (:func:`quantromon.rng.philox4x64` checks it); a numpy integer gives the
    values of the equal ``int``.
    """
    _check_state("prepared", prepared)
    # shot i is counter i of a 64-bit counter
    if not (is_int(n_shots) and 1 <= n_shots <= 2**64):
        raise ParameterError(f"n_shots must lie in [1, 2**64] and be an integer, "
                             f"got {n_shots!r}")
    from scipy.special import ndtri  # deferred: importing readout loads no scipy

    m0, m1 = pointer_means(p)
    sigma = _noise_sigma(p)
    values = np.empty(n_shots)
    # a huge t1 overflows the decay time to inf, which is no decay (weight 1);
    # a huge noise_scale overflows shots to +-inf, which the fit's start check
    # reports
    with np.errstate(over="ignore"):
        for start in range(0, n_shots, _SHOT_CHUNK):
            stop = min(start + _SHOT_CHUNK, n_shots)
            u = rng.uniforms(seed, prepared, start, stop - start)
            if prepared == 1:
                excited = np.ones(stop - start, dtype=bool)
            else:
                excited = u[:, 2] < p.thermal_pop
            base = np.full(stop - start, m0)
            if np.any(excited):
                t_decay = -p.t1 * np.log(u[:, 1][excited])
                weight = np.minimum(t_decay / p.tau, 1.0)
                base[excited] = weight * m1 + (1.0 - weight) * m0
            np.add(base, ndtri(u[:, 0]) * sigma, out=values[start:stop])
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


def _can_fork() -> bool:
    """Whether a helper child may be forked: this process runs one OS thread.
    A child forked beside other threads (a BLAS pool, say) can inherit a lock
    that one of them held."""
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:  # no /proc: the thread count is unknown
        return False


def _beside_child(here, there):
    """Run ``there()`` in a forked child while ``here()`` runs in this
    process; ``(here(), the bytes there() returned)``, with None for the
    bytes if no child started or it failed: a nonzero status, a signal, a
    short read, or a status lost because the child was reaped elsewhere. If
    ``here()`` raises, the child is killed before its pipe is read, so the
    error does not wait for its work, and it is reaped. It imports nothing,
    leaves the parent's files alone and always ends with ``os._exit``: no
    inherited buffer is flushed twice, and no exception of its own reaches a
    handler of the parent."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return here(), None
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            data = there()
            with open(write_end, "wb") as pipe:
                pipe.write(len(data).to_bytes(8, "little"))
                pipe.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    try:
        result = here()
    except BaseException:
        try:
            os.kill(pid, signal.SIGKILL)  # its bytes are not wanted
        except ProcessLookupError:  # reaped elsewhere already
            pass
        raise
    finally:
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
    return result, data if status == 0 and len(head) == 8 and len(data) == size else None


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
    double. In a single-threaded process on Linux, a large file's first half
    of lines is written here while a forked child formats the second half
    (:func:`_beside_child`); if the child fails, this process formats that
    half too, so the bytes are always those of the serial code. A file that
    cannot be written raises :class:`ParameterError` (``cannot write shot
    file <path>: <reason>``).
    """
    values = shots.values
    n = values.size
    mid = n // 2 if n >= _FORK_MIN_VALUES and _can_fork() else 0
    with io_fault("write", f"shot file {path}"), \
            open(path, "w", encoding="utf-8", newline="") as f:
        f.write(f"# prepared_state={shots.prepared_state}\n")
        f.write(f"# seed={shots.seed}\n")
        for name, value in shots.params._asdict().items():
            f.write(f"# {name}={'' if value is None else repr(float(value))}\n")
        f.write("value\n")
        tail = None
        if mid:  # a forked child formats the lines from mid on
            tail = _beside_child(lambda: f.writelines(_lines(values, 0, mid)),
                                 lambda: "".join(_lines(values, mid, n)).encode())[1]
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


def _one_column(path, values: np.ndarray) -> np.ndarray:
    """``values`` from :func:`_parse_lines`, once each line is seen to hold
    one number."""
    if values.shape[1] != 1:
        raise ParameterError(f"malformed shot CSV {path}: expected one value per "
                             f"line, found {values.shape[1]} columns")
    return values


def _read_values(path, start: int, size: int) -> np.ndarray:
    """Parse the value lines of a shot CSV of ``size`` bytes, from byte
    ``start``, the start of its first value line, to the end.

    A large file on a single-threaded Linux process is split at the line
    boundary after its middle: this process parses the first half while a
    forked child parses the second and sends its values as bare float64
    bytes (:func:`_beside_child`). If a half fails, warns or holds more than
    one column, or the child fails, the whole range is parsed again here, so
    the values, warnings and messages are those of the serial parse.
    """
    if size - start >= _FORK_MIN_BYTES and _can_fork():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                with open(path, "rb") as f:
                    f.seek((start + size) // 2)
                    cut = f.tell() + f.read(4096).index(b"\n") + 1  # a line boundary
                first, second = _beside_child(
                    lambda: _one_column(path, _parse_lines(path, start, cut)),
                    lambda: _one_column(path, _parse_lines(path, cut)).tobytes())
            except (ValueError, Warning):  # a ParameterError included
                second = None  # the serial parse below names the fault
        if second is not None:
            # grow the first half's own 2-D array in place, as np.loadtxt grows
            # its result (a new array for both halves left glibc's heap
            # untrimmed, +8% peak RSS); no view shares it, and a view could
            # not be resized
            second = np.frombuffer(second, dtype=np.float64)
            rows = len(first)
            first.resize((rows + len(second), 1), refcheck=False)
            first[rows:, 0] = second
            return first[:, 0]
    try:
        values = _parse_lines(path, start)
    except ValueError as exc:  # a UnicodeDecodeError included
        raise _fault_error(path, exc) from None
    return _one_column(path, values)[:, 0]


def _is_header(text: str) -> bool:
    """Whether a stripped line of a shot CSV may come before its values: a
    ``#`` header line, a blank line or the ``value`` title. The first line
    that is none of these is the first value line."""
    return not text or text.startswith("#") or text == "value"


def _is_number(text: str) -> bool:
    """Whether ``np.loadtxt`` reads the stripped ``text`` as one float64: as
    ``float`` reads it, but ASCII only and without ``_`` digit separators."""
    if not text.isascii() or "_" in text:
        return False
    try:
        float(text)
    except ValueError:
        return False
    return True


def _fault_error(path, exc: ValueError) -> ParameterError:
    """Name the first fault of a shot CSV in file order: a byte that is not
    UTF-8, or a value line that is not one number; else ``exc``. Lines end at
    LF, CR or CRLF, as in text mode."""
    with open(path, "rb") as f:
        data = f.read()
    offset = 0  # bytes before the current line
    in_values = False
    for lineno, line in enumerate(data.splitlines(keepends=True), start=1):
        try:
            text = line.decode("utf-8").strip()
        except UnicodeDecodeError as err:
            return ParameterError(
                f"malformed shot CSV {path}: 'utf-8' codec can't decode byte "
                f"0x{line[err.start]:02x} on line {lineno}, at file offset "
                f"{offset + err.start}: {err.reason}")
        in_values = in_values or not _is_header(text)
        text = text.split("#", 1)[0].strip()
        if in_values and text and not _is_number(text):
            return ParameterError(
                f"malformed shot CSV {path}, line {lineno}: {text!r} is not a number")
        offset += len(line)
    return ParameterError(f"malformed shot CSV values in {path}: {exc}")


def import_shots_csv(path) -> ShotSet:
    """Parse a ShotSet written by :func:`export_shots_csv` (or a compatible
    real measurement record).

    A ``path`` that is not a regular file raises :class:`ParameterError`
    (``shot file not found: <path>``), and so does one that cannot be read
    or even looked up, such as a name too long for the file system
    (``cannot read shot file <path>: <reason>``). ``# key=value`` header
    lines, blank lines and one ``value`` column title come first; from the
    first number on, the file holds one number per line
    (blank lines and ``#`` comments are skipped). Any line ending is
    accepted. A header field of :class:`ReadoutParams` with a default may be
    left out and takes it. A missing or unreadable header value, or one that
    :class:`ReadoutParams` or :class:`ShotSet` rejects (a ``prepared_state``
    other than 0 or 1, a ``seed`` outside ``[0, 2**64)``), raises
    :class:`ParameterError` that names the file and the key. The first
    fault among the value lines, in file order, raises
    :class:`ParameterError`: a value that is not a number names its line, a
    byte that is not UTF-8 its line and file offset. In a single-threaded
    process on Linux, a forked child parses half of a large file's lines;
    the values and messages are the same.
    """
    header: dict[str, str] = {}
    values = np.empty(0)
    # the stat, too, can fail: a name too long for the file system, say
    with io_fault("read", f"shot file {path}"):
        if not Path(path).is_file():
            raise ParameterError(f"shot file not found: {path}")
        try:
            with open(path, "r", encoding="utf-8", newline="") as f:
                offset = 0  # bytes before the current line
                for line in f:
                    text = line.strip()
                    if not _is_header(text):
                        values = _read_values(path, offset, os.fstat(f.fileno()).st_size)
                        break
                    if text.startswith("#"):
                        key, _, val = text.lstrip("# ").partition("=")
                        header[key.strip()] = val.strip()
                    offset += len(line.encode("utf-8"))
        except UnicodeDecodeError as exc:  # in the header read, which decodes ahead
            raise _fault_error(path, exc) from None

    def read(key, convert):
        """The header value of ``key`` as ``convert`` reads it."""
        if key not in header:
            raise ParameterError(f"{key} is missing")
        try:
            return convert(header[key])
        except ValueError:
            raise ParameterError(f"cannot read {key}={header[key]!r}") from None

    try:
        # a field with a default may be left out (or empty) and takes it, as in
        # a config's readout section
        params = ReadoutParams(**{name: read(name, float) for name in ReadoutParams._fields
                                  if header.get(name, "") != ""
                                  or name not in ReadoutParams._field_defaults})
        return ShotSet(prepared_state=read("prepared_state", int), values=values,
                       seed=read("seed", int), params=params)
    except ParameterError as exc:
        raise ParameterError(f"malformed shot CSV header in {path}: {exc}") from None


# ---------------------------------------------------------------------------
# Double-Gaussian fitting, thresholding, and error reports
# ---------------------------------------------------------------------------

class GaussianMixtureFit(NamedTuple):
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

    x0v, x1v = shots0.values, shots1.values
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


class FidelityReport(NamedTuple):
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
    p10 = float(np.mean(sign * (shots0.values - thr) > 0.0))
    p01 = float(np.mean(~(sign * (shots1.values - thr) > 0.0)))
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


class IntegrationPoint(NamedTuple):
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
        p_tau = p._replace(tau=tau)
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
