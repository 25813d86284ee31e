"""Readout fitting over collections of disjoint training signals.

The readout solves a ridge regression: reservoir states gathered while
driving with noisy standardized signals are paired with the next noisy
sample, the first ``n_trans`` states of every signal are discarded as a
synchronization transient, and the normal-equation blocks Y R^T and R R^T
are accumulated batch by batch so that no more than ``batch_max_states``
reservoir states are ever held at once.  The fit pair count is

    n_fit = sum_i N_i - n_signals * (n_trans + 1)

exactly: each signal of N_i samples yields N_i - 1 state/next-sample pairs,
of which the first n_trans are dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

from .errors import DimensionMismatchError, SingularSystemError, TooShortError
from .reservoir import Reservoir, drive_open_loop, read_archive, write_archive
from .timeseries import (
    Standardizer,
    TimeSeries,
    add_training_noise,
    component_rms,
    fit_standardizer,
)


@dataclass(frozen=True)
class TrainConfig:
    """Knobs of the ridge-regression training pipeline.

    Attributes:
        n_trans: Reservoir states discarded per signal before fitting.
        alpha: Tikhonov regularization strength.
        eta: Training noise amplitude, in units of each component's RMS.
        batch_max_states: Upper bound on reservoir states held at once.
        seed: Seed of the noise stream; draws are consumed signal by signal
            in list order, so results do not depend on batching.
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
        w_out = np.array(self.w_out, dtype=float)
        if w_out.ndim != 2:
            raise DimensionMismatchError("w_out must be a matrix")
        if not np.all(np.isfinite(w_out)):
            raise ValueError("w_out contains non-finite entries")
        if self.n_fit < 1:
            raise ValueError("n_fit must be positive")
        w_out.flags.writeable = False
        object.__setattr__(self, "w_out", w_out)


class NormalAccumulator:
    """Running sums of the normal-equation blocks.

    Holds yrt = sum of target x state outer products (n_in x n_r), rrt =
    sum of state outer products (n_r x n_r, kept numerically symmetric),
    the pair count, and the sum of squared targets (for residual reports).
    Accumulation is associative, so batches may be merged in any order.
    """

    def __init__(self, n_r: int, n_in: int):
        self.yrt = np.zeros((n_in, n_r))
        self.rrt = np.zeros((n_r, n_r))
        self.n_fit = 0
        self.target_sq = 0.0

    def accumulate(self, states: np.ndarray, targets: np.ndarray) -> "NormalAccumulator":
        """Add one aligned batch of states and targets; rows pair one-to-one."""
        states = np.asarray(states, dtype=float)
        targets = np.asarray(targets, dtype=float)
        if states.ndim != 2 or targets.ndim != 2 or states.shape[0] != targets.shape[0]:
            raise DimensionMismatchError("states and targets must pair row by row")
        if states.shape[0] == 0:
            return self
        if states.shape[1] != self.rrt.shape[0] or targets.shape[1] != self.yrt.shape[0]:
            raise DimensionMismatchError("batch width does not match accumulator")
        block = states.T @ states
        self.rrt += 0.5 * (block + block.T)
        self.yrt += targets.T @ states
        self.n_fit += states.shape[0]
        self.target_sq += float(np.sum(targets**2))
        return self

    def merge(self, other: "NormalAccumulator") -> "NormalAccumulator":
        if other.rrt.shape != self.rrt.shape or other.yrt.shape != self.yrt.shape:
            raise DimensionMismatchError("cannot merge accumulators of different shapes")
        self.rrt += other.rrt
        self.yrt += other.yrt
        self.n_fit += other.n_fit
        self.target_sq += other.target_sq
        return self


def solve_readout(acc: NormalAccumulator, alpha: float) -> np.ndarray:
    """Solve w_out = yrt (rrt + alpha n_fit I)^(-1) without forming an inverse.

    Uses a symmetric positive-definite factorization; if it breaks down with
    alpha > 0 a pivoted least-squares solve takes over, and with alpha == 0
    the breakdown is reported as :class:`SingularSystemError`.
    """
    if acc.n_fit < 1:
        raise ValueError("accumulator holds no fit pairs")
    lhs = acc.rrt + (alpha * acc.n_fit) * np.eye(acc.rrt.shape[0])
    try:
        cho = scipy.linalg.cho_factor(lhs, lower=True, check_finite=False)
        return scipy.linalg.cho_solve(cho, acc.yrt.T, check_finite=False).T
    except scipy.linalg.LinAlgError as err:
        if alpha == 0.0:
            raise SingularSystemError(
                "rrt is rank-deficient and alpha is zero") from err
        solution, *_ = scipy.linalg.lstsq(lhs, acc.yrt.T, check_finite=False)
        return solution.T


def fit_mse(acc: NormalAccumulator, w_out: np.ndarray) -> float:
    """Mean squared training error, computed from the accumulated blocks."""
    total = (acc.target_sq
             - 2.0 * float(np.sum(w_out * acc.yrt))
             + float(np.sum((w_out @ acc.rrt) * w_out)))
    return max(total, 0.0) / acc.n_fit


def train(res: Reservoir, signals: Sequence[TimeSeries], cfg: TrainConfig,
          standardizer: Standardizer | None = None) -> Readout:
    """Fit the readout over a list of disjoint training signals.

    Pipeline: fit the standardizer on the union of the signals (unless one
    is supplied, e.g. the identity transform for raw-input experiments),
    standardize, add white noise, drive the reservoir from the zero state,
    drop the first ``n_trans`` states of each signal, pair the state that
    consumed noisy sample k with noisy sample k+1, and accumulate the
    normal-equation blocks in batches of at most ``batch_max_states``.
    """
    readout, _ = train_with_mse(res, signals, cfg, standardizer=standardizer)
    return readout


def train_with_mse(res: Reservoir, signals: Sequence[TimeSeries], cfg: TrainConfig,
                   standardizer: Standardizer | None = None) -> tuple[Readout, float]:
    """Like :func:`train`, also returning the mean squared training error."""
    if len(signals) == 0:
        raise ValueError("need at least one training signal")
    n_in = signals[0].n_components
    if n_in != res.n_in:
        raise DimensionMismatchError(
            f"signals have {n_in} components but reservoir expects {res.n_in}")
    for i, s in enumerate(signals):
        if s.n_samples < cfg.n_trans + 2:
            raise TooShortError(
                f"signal {i} has {s.n_samples} samples; need at least {cfg.n_trans + 2}")

    if standardizer is None:
        standardizer = fit_standardizer(signals)
    standardized = [standardizer.apply(s) for s in signals]
    rms = np.array([component_rms(standardized, j) for j in range(n_in)])

    rng = np.random.default_rng(cfg.seed)
    acc = NormalAccumulator(res.n_r, n_in)
    for signal in standardized:
        noisy = add_training_noise(signal, cfg.eta, rms, rng).values
        inputs = noisy[:-1]
        targets = noisy[1:]
        state = res.zero_state()
        pos = 0
        while pos < inputs.shape[0]:
            chunk = inputs[pos:pos + cfg.batch_max_states]
            states = drive_open_loop(res, chunk, state)
            state = states[-1]
            lo = max(cfg.n_trans - pos, 0)
            if lo < states.shape[0]:
                acc.accumulate(states[lo:], targets[pos + lo:pos + states.shape[0]])
            pos += states.shape[0]

    w_out = solve_readout(acc, cfg.alpha)
    readout = Readout(w_out=w_out, standardizer=standardizer, n_fit=acc.n_fit)
    return readout, fit_mse(acc, w_out)


_MODEL_SCHEMA = "rcbasin-model-1"


def save_model(path, res: Reservoir, readout: Readout) -> None:
    """Persist the trained bundle (reservoir spec + weights + readout) in one file."""
    write_archive(path, _MODEL_SCHEMA, res, w_out=readout.w_out,
                  shift=readout.standardizer.shift, scale=readout.standardizer.scale,
                  n_fit=np.array(readout.n_fit))


def load_model(path) -> tuple[Reservoir, Readout]:
    res, arrays = read_archive(path, _MODEL_SCHEMA, ("w_out", "shift", "scale", "n_fit"))
    return res, Readout(w_out=arrays["w_out"],
                        standardizer=Standardizer(arrays["shift"], arrays["scale"]),
                        n_fit=int(arrays["n_fit"]))
