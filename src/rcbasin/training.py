"""Readout fitting over collections of disjoint training signals.

The readout solves a ridge regression: reservoir states gathered while
driving with noisy standardized signals are paired with the next noisy
sample, the first ``n_trans`` states of every signal are discarded as a
synchronization transient, and the normal-equation blocks Y R^T and R R^T
are accumulated signal by signal, in order.  No more than
``batch_max_states`` reservoir states are ever held at once: a run of k
consecutive equal-length signals is driven as the k columns of one
evolution, batch_max_states // k steps at a time.  The fit pair count is

    n_fit = sum_i N_i - n_signals * (n_trans + 1)

exactly: each signal of N_i samples yields N_i - 1 state/next-sample pairs,
of which the first n_trans are dropped.

Signals arrive as any sequence of ``(N_i, n_in)`` arrays (a 3-d array or a
list of :class:`TimeSeries` included) and are stacked once; standardization,
the pooled per-component RMS and the training noise work on the stack.
"""

from __future__ import annotations

import io
import itertools
import zipfile
from dataclasses import astuple, dataclass, fields
from typing import Sequence

import numpy as np
import scipy.linalg
from numpy.lib import format as npformat
from scipy import sparse
from scipy.linalg.blas import dsyrk

from .errors import (
    DimensionMismatchError,
    SchemaMismatchError,
    SingularSystemError,
    TooShortError,
    ZeroRangeError,
)
from .reservoir import Reservoir, ReservoirSpec, drive_open_loop
from .timeseries import Standardizer, TimeSeries, fit_standardizer, frozen


@dataclass(frozen=True)
class TrainConfig:
    """Knobs of the ridge-regression training pipeline.

    Attributes:
        n_trans: Reservoir states discarded per signal before fitting.
        alpha: Tikhonov regularization strength.
        eta: Training noise amplitude, in units of each component's RMS.
        batch_max_states: Upper bound on reservoir states held at once.
        seed: Seed of the noise stream; draws are consumed signal by signal
            in sequence order, so results do not depend on batching.
    """

    n_trans: int = 5
    alpha: float = 1e-12
    eta: float = 1e-5
    batch_max_states: int = 4096
    seed: int = 0

    def __post_init__(self):
        if self.n_trans < 0:
            raise ValueError("n_trans must be non-negative")
        if self.alpha < 0.0:
            raise ValueError("alpha must be non-negative")
        if self.eta < 0.0:
            raise ValueError("eta must be non-negative")
        if self.batch_max_states < 1:
            raise ValueError("batch_max_states must be at least 1")


@dataclass(frozen=True)
class Readout:
    """Trained linear output map with its fitted standardizer.

    ``w_out`` maps a reservoir state to the standardized next sample; the
    standardizer converts between original and standardized coordinates.
    """

    w_out: np.ndarray
    standardizer: Standardizer
    n_fit: int

    def __post_init__(self):
        w_out = frozen(self.w_out)
        if w_out.ndim != 2:
            raise DimensionMismatchError("w_out must be a matrix")
        if not np.all(np.isfinite(w_out)):
            raise ValueError("w_out contains non-finite entries")
        if self.n_fit < 1:
            raise ValueError("n_fit must be positive")
        object.__setattr__(self, "w_out", w_out)


class NormalAccumulator:
    """Running sums of the normal-equation blocks.

    Holds yrt = sum of target x state outer products (n_in x n_r), rrt =
    sum of state outer products (n_r x n_r, exactly symmetric),
    the pair count, and the sum of squared targets (for residual reports).
    Batches may be accumulated in any order; the floating-point sums then
    agree up to rounding, not bit for bit.

    Each batch adds one BLAS ``dsyrk`` triangle, computed in a reused Gram
    buffer, to the upper triangle of ``rrt``: the triangle numpy's
    ``states.T @ states`` computes, bit for bit, without mirroring it on
    every call.  Reading ``rrt`` mirrors it in place and frees the buffer,
    so the solve holds no third n_r x n_r array.
    """

    def __init__(self, n_r: int, n_in: int):
        self.yrt = np.zeros((n_in, n_r))
        self._rrt = np.zeros((n_r, n_r))
        self._gram = None  # allocated by the first batch after a read
        self.n_fit = 0
        self.target_sq = 0.0

    @property
    def rrt(self) -> np.ndarray:
        if self._gram is not None:
            for i in range(1, len(self._rrt)):
                self._rrt[i, :i] = self._rrt[:i, i]
            self._gram = None
        return self._rrt

    def accumulate(self, states: np.ndarray, targets: np.ndarray) -> "NormalAccumulator":
        """Add one aligned batch of states and targets; rows pair one-to-one."""
        states = np.ascontiguousarray(states, dtype=float)
        targets = np.asarray(targets, dtype=float)
        if states.ndim != 2 or targets.ndim != 2 or states.shape[0] != targets.shape[0]:
            raise DimensionMismatchError("states and targets must pair row by row")
        if states.shape[0] == 0:
            return self
        if states.shape[1] != len(self._rrt) or targets.shape[1] != len(self.yrt):
            raise DimensionMismatchError("batch width does not match accumulator")
        if self._gram is None:
            # Fortran-ordered: dsyrk fills its lower triangle in place, which
            # the C-ordered transpose shows as the upper one; the rest stays 0
            self._gram = np.zeros_like(self._rrt, order="F")
        # states.T is the Fortran-ordered n_r x m matrix A of A A^T, as numpy
        # passes it to syrk for states.T @ states
        dsyrk(1.0, states.T, c=self._gram, lower=1, overwrite_c=1)
        self._rrt += self._gram.T
        self.yrt += targets.T @ states
        self.n_fit += states.shape[0]
        self.target_sq += float(np.sum(targets**2))
        return self


def solve_readout(acc: NormalAccumulator, alpha: float) -> np.ndarray:
    """Solve w_out = yrt (rrt + alpha n_fit I)^(-1) without forming an inverse.

    Uses a symmetric positive-definite factorization; if it breaks down with
    alpha > 0 a pivoted least-squares solve takes over, and with alpha == 0
    the breakdown is reported as :class:`SingularSystemError`.  Beside
    ``rrt`` it holds one n_r x n_r array: a Fortran-ordered copy, which
    LAPACK factors in place.
    """
    if acc.n_fit < 1:
        raise ValueError("accumulator holds no fit pairs")
    ridge = alpha * acc.n_fit
    lhs = np.array(acc.rrt, order="F")
    lhs[np.diag_indices_from(lhs)] += ridge
    try:
        cho = scipy.linalg.cho_factor(lhs, lower=True, overwrite_a=True, check_finite=False)
        return scipy.linalg.cho_solve(cho, acc.yrt.T, check_finite=False).T
    except scipy.linalg.LinAlgError as err:
        if alpha == 0.0:
            raise SingularSystemError(
                "rrt is rank-deficient and alpha is zero") from err
        # the failed factorization overwrote lhs
        lhs = acc.rrt + ridge * np.eye(acc.rrt.shape[0])
        solution, *_ = scipy.linalg.lstsq(lhs, acc.yrt.T, check_finite=False)
        return solution.T


def fit_mse(acc: NormalAccumulator, w_out: np.ndarray) -> float:
    """Mean squared training error, computed from the accumulated blocks."""
    total = (acc.target_sq
             - 2.0 * float(np.sum(w_out * acc.yrt))
             + float(np.sum((w_out @ acc.rrt) * w_out)))
    return max(total, 0.0) / acc.n_fit


def train(res: Reservoir, signals: Sequence, cfg: TrainConfig,
          standardizer: Standardizer | None = None) -> Readout:
    """Fit the readout over a sequence of disjoint training signals.

    ``signals`` holds ``(N_i, n_in)`` arrays of any lengths: a list of
    arrays or :class:`TimeSeries`, or one ``(n_signals, N, n_in)`` array.
    Pipeline: fit the standardizer on the union of the signals (unless one
    is supplied, e.g. the identity transform for raw-input experiments),
    standardize, add white noise, drive the reservoir from the zero state,
    drop the first ``n_trans`` states of each signal, pair the state that
    consumed noisy sample k with noisy sample k+1, and accumulate the
    normal-equation blocks in batches of at most ``batch_max_states``.
    """
    readout, _ = train_with_mse(res, signals, cfg, standardizer=standardizer)
    return readout


def train_with_mse(res: Reservoir, signals: Sequence, cfg: TrainConfig,
                   standardizer: Standardizer | None = None) -> tuple[Readout, float]:
    """Like :func:`train`, also returning the mean squared training error."""
    arrays = [np.asarray(s.values if isinstance(s, TimeSeries) else s, dtype=float)
              for s in signals]
    if not arrays:
        raise ValueError("need at least one training signal")
    for i, values in enumerate(arrays):
        if values.ndim != 2 or values.shape[1] != res.n_in:
            raise DimensionMismatchError(f"signal {i} has shape {values.shape}; the "
                                         f"reservoir expects (n_samples, {res.n_in})")
        if values.shape[0] < cfg.n_trans + 2:
            raise TooShortError(
                f"signal {i} has {values.shape[0]} samples; need at least {cfg.n_trans + 2}")
    # one series checks every sample is finite; it is also the TimeSeries span
    # the benchmark's contract (perfbench/run.py COMMON_SPANS) needs in a map
    stacked = TimeSeries(np.concatenate(arrays), dt=1.0).values
    bounds = np.cumsum([values.shape[0] for values in arrays])[:-1]

    if standardizer is None:
        standardizer = fit_standardizer(stacked)
    standardized = standardizer.apply_values(stacked)
    # per-component RMS pooled over every sample, summed signal by signal
    rms = np.array([np.sqrt(sum(float(np.sum(v[:, j] ** 2))
                                for v in np.split(standardized, bounds)) / len(stacked))
                    for j in range(res.n_in)])
    # drawn even at eta 0, so the noise stream does not depend on eta; one
    # draw for the stack equals consecutive draws signal by signal
    noise = np.random.default_rng(cfg.seed).standard_normal(standardized.shape)
    noisy = standardized + noise * (cfg.eta * rms)

    acc = NormalAccumulator(res.n_r, res.n_in)
    for block in _blocks(np.split(noisy, bounds), res, cfg.batch_max_states):
        # in a function, so that a block's states are freed before the next
        _drive_and_accumulate(acc, res, block, cfg)

    w_out = solve_readout(acc, cfg.alpha)
    readout = Readout(w_out=w_out, standardizer=standardizer, n_fit=acc.n_fit)
    return readout, fit_mse(acc, w_out)


def _drive_and_accumulate(acc: NormalAccumulator, res: Reservoir, block: list,
                          cfg: TrainConfig) -> None:
    """Drive k signals from the zero state as k columns, ``batch_max_states // k`` steps
    a chunk, and accumulate each signal's pairs of a chunk in order."""
    k, steps = len(block), len(block[0]) - 1
    chunk = cfg.batch_max_states // k
    state = np.zeros((k, res.n_r))
    for pos in range(0, steps, chunk):
        inputs = np.concatenate([v[:-1][pos:pos + chunk] for v in block])
        states = drive_open_loop(res, inputs, state).reshape(k, -1, res.n_r)
        lo = max(cfg.n_trans - pos, 0)
        for values, own in zip(block, states):
            if lo < len(own):
                acc.accumulate(own[lo:], values[pos + 1 + lo:pos + 1 + len(own)])
        # a copy, and no view left, so that this chunk is freed before the next is driven
        state = states[:, -1].copy()
        del states, own


def _blocks(signals: list, res: Reservoir, batch_max_states: int):
    """Runs of consecutive equal-length signals, to be driven as columns.

    A run of N-sample signals holds at most k = min(batch_max_states, 2 n_r)
    // (N - 1) of them, so its states take no more floats than ``rrt`` and
    the Gram buffer and fit one chunk.  With two or more inputs k is 1:
    their BLAS input term rounds by batch width.
    """
    for _, run in itertools.groupby(signals, len):
        run = list(run)
        k = max(1, min(batch_max_states, 2 * res.n_r) // (len(run[0]) - 1)) if res.n_in == 1 else 1
        for lo in range(0, len(run), k):
            yield run[lo:lo + k]


_MODEL_SCHEMA = "rcbasin-model-1"


def save_model(path, res: Reservoir, readout: Readout) -> None:
    """Persist the trained bundle (reservoir spec + weights + readout) as one .npz.

    Members: ``schema``, ``spec`` (its fields in order, as floats), the CSR
    triple ``w_r_data``/``w_r_indices``/``w_r_indptr``, ``w_in``, ``bias``,
    ``w_out``, the standardizer's ``shift`` and ``scale``, and ``n_fit``.
    Zip timestamps are pinned, where ``np.savez`` would stamp the current
    time, so equal bundles give equal bytes.
    """
    if res.spec is None:
        raise ValueError("only reservoirs built from a ReservoirSpec can be saved")
    arrays = {
        "schema": np.array(_MODEL_SCHEMA),
        "spec": np.array(astuple(res.spec), dtype=float),
        "w_r_data": res.w_r.data,
        "w_r_indices": res.w_r.indices,
        "w_r_indptr": res.w_r.indptr,
        "w_in": res.w_in,
        "bias": res.bias,
        "w_out": readout.w_out,
        "shift": readout.standardizer.shift,
        "scale": readout.standardizer.scale,
        "n_fit": np.array(readout.n_fit),
    }
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as zf:
        for name in sorted(arrays):
            buf = io.BytesIO()
            npformat.write_array(buf, np.asarray(arrays[name]), allow_pickle=False)
            info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
            zf.writestr(info, buf.getvalue())


def _spec_from_member(values: np.ndarray) -> ReservoirSpec:
    """A bundle's ``spec``: one real number per field, in order, integral for int fields."""
    specs = fields(ReservoirSpec)
    if values.shape != (len(specs),) or values.dtype.kind not in "iuf":
        raise ValueError(f"spec must hold {len(specs)} numbers, "
                         f"not a {values.dtype} array of shape {values.shape}")
    values = values.tolist()
    for f, v in zip(specs, values):
        if f.type == "int" and not float(v).is_integer():
            raise ValueError(f"spec field {f.name} = {v} is not an integer")
    return ReservoirSpec(*(int(v) if f.type == "int" else float(v) for f, v in zip(specs, values)))


def load_model(path) -> tuple[Reservoir, Readout]:
    """Read a :func:`save_model` bundle; reloaded dynamics are bit-identical.

    Raises :class:`SchemaMismatchError` naming the file unless it is a
    complete bundle written under this module's model schema whose parts
    fit its ``spec``: ``w_in`` (n_r, n_in), ``w_out`` (n_in, n_r), and n_in
    standardizer entries.
    """
    try:
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as archive:
            if str(archive["schema"]) != _MODEL_SCHEMA:
                raise ValueError(
                    f"unexpected archive schema {archive['schema']}; expected {_MODEL_SCHEMA}")
            spec = _spec_from_member(archive["spec"])
            w_r = sparse.csr_matrix(
                (archive["w_r_data"], archive["w_r_indices"], archive["w_r_indptr"]),
                shape=(spec.n_r, spec.n_r),
            )
            res = Reservoir(w_r, archive["w_in"], archive["bias"], spec.leakage, spec=spec)
            readout = Readout(w_out=archive["w_out"],
                              standardizer=Standardizer(archive["shift"], archive["scale"]),
                              n_fit=int(archive["n_fit"]))
        for name, shape, expected in (
                ("w_in", res.w_in.shape, (spec.n_r, spec.n_in)),
                ("w_out", readout.w_out.shape, (spec.n_in, spec.n_r)),
                ("shift and scale", readout.standardizer.shift.shape, (spec.n_in,))):
            if shape != expected:
                raise ValueError(f"{name} of shape {shape}, not {expected} as its spec says")
    except (KeyError, ValueError, EOFError, zipfile.BadZipFile, DimensionMismatchError,
            ZeroRangeError) as err:
        raise SchemaMismatchError(f"{path} is not a complete model bundle: {err}") from err
    return res, readout
