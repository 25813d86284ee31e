"""Uniformly sampled multivariate signals and their training-time preprocessing.

A :class:`TimeSeries` is the carrier for everything that flows through the
pipeline: integrated trajectories, training signals, test signals, and
closed-loop predictions.  :class:`Standardizer` implements the shift/scale
transform fitted on the union of the training signals (zero mean, unit
maximum absolute value per component); noise injection implements the white
noise added to standardized training inputs before ridge fitting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, ZeroRangeError


@dataclass(frozen=True)
class TimeSeries:
    """A uniformly sampled signal of shape (n_samples, n_components).

    Attributes:
        values: Sample matrix, one row per time step.  A 1-d array is
            accepted and treated as a single component.
        dt: Sample interval, strictly positive.
        t0: Time of the first sample.
    """

    values: np.ndarray
    dt: float
    t0: float = 0.0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise DimensionMismatchError(
                f"expected a (n_samples, n_components) array, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("time series contains non-finite values")
        if not (self.dt > 0.0):
            raise ValueError(f"dt must be positive, got {self.dt}")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_components(self) -> int:
        return self.values.shape[1]

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_samples)

    def prefix(self, n: int) -> "TimeSeries":
        """First ``n`` samples as a new series."""
        return TimeSeries(self.values[:n], self.dt, self.t0)

    def observe(self, components: Sequence[int]) -> "TimeSeries":
        """Project onto the given components (partial observation)."""
        return TimeSeries(self.values[:, list(components)], self.dt, self.t0)


@dataclass(frozen=True)
class Standardizer:
    """Per-component shift/scale transform.

    ``apply`` maps v to (v - shift) / scale; fitted so the union of the
    training signals has component-wise mean zero and maximum absolute
    value one.  Scales are strictly positive by construction.
    """

    shift: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        shift = np.atleast_1d(np.asarray(self.shift, dtype=float)).copy()
        scale = np.atleast_1d(np.asarray(self.scale, dtype=float)).copy()
        if shift.shape != scale.shape or shift.ndim != 1:
            raise DimensionMismatchError("shift and scale must be 1-d and equal length")
        if not np.all(np.isfinite(shift)) or not np.all(np.isfinite(scale)):
            raise ValueError("standardizer parameters must be finite")
        if np.any(scale <= 0.0):
            raise ZeroRangeError("scale components must be strictly positive")
        shift.flags.writeable = False
        scale.flags.writeable = False
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "scale", scale)

    @classmethod
    def identity(cls, n_components: int) -> "Standardizer":
        """No-op transform, used when inputs are deliberately left raw."""
        return cls(np.zeros(n_components), np.ones(n_components))

    @property
    def n_components(self) -> int:
        return self.shift.shape[0]

    def apply_values(self, values: np.ndarray) -> np.ndarray:
        self._check(values)
        return (values - self.shift) / self.scale

    def invert_values(self, values: np.ndarray) -> np.ndarray:
        self._check(values)
        return values * self.scale + self.shift

    def apply(self, signal: TimeSeries) -> TimeSeries:
        return TimeSeries(self.apply_values(signal.values), signal.dt, signal.t0)

    def _check(self, values: np.ndarray):
        if np.shape(values)[-1] != self.n_components:
            raise DimensionMismatchError(
                f"expected {self.n_components} components, got {np.shape(values)[-1]}"
            )


def _check_same_width(signals: Sequence[TimeSeries]) -> int:
    if len(signals) == 0:
        raise ValueError("need at least one signal")
    n_in = signals[0].n_components
    for s in signals:
        if s.n_components != n_in:
            raise DimensionMismatchError("signals have differing component counts")
    return n_in


def fit_standardizer(signals: Sequence[TimeSeries]) -> Standardizer:
    """Fit shift (mean) and scale (max absolute deviation) over all signals.

    Statistics are pooled over every sample of every signal.  Raises
    :class:`ZeroRangeError` if some component is constant across the whole
    union, since a zero scale would make the transform non-invertible.
    """
    _check_same_width(signals)
    stacked = np.concatenate([s.values for s in signals], axis=0)
    shift = stacked.mean(axis=0)
    scale = np.abs(stacked - shift).max(axis=0)
    if np.any(scale == 0.0):
        dead = np.nonzero(scale == 0.0)[0].tolist()
        raise ZeroRangeError(f"components {dead} are constant over the training union")
    return Standardizer(shift, scale)


def component_rms(signals: Sequence[TimeSeries], j: int) -> float:
    """Root-mean-square amplitude of component ``j`` pooled over all signals."""
    n_in = _check_same_width(signals)
    if not 0 <= j < n_in:
        raise DimensionMismatchError(f"component {j} out of range for width {n_in}")
    total = sum(float(np.sum(s.values[:, j] ** 2)) for s in signals)
    count = sum(s.n_samples for s in signals)
    return float(np.sqrt(total / count))


def add_training_noise(
    signal: TimeSeries,
    eta: float,
    rms: np.ndarray,
    rng: np.random.Generator,
) -> TimeSeries:
    """Add independent Gaussian noise with std ``eta * rms[j]`` per component.

    The input signal is left untouched.  With ``eta == 0`` the output values
    equal the input values exactly (the generator is still advanced, so the
    draw sequence does not depend on eta).
    """
    if eta < 0.0:
        raise ValueError("eta must be non-negative")
    rms = np.asarray(rms, dtype=float)
    if rms.shape != (signal.n_components,):
        raise DimensionMismatchError("rms must have one entry per component")
    noise = rng.standard_normal(signal.values.shape) * (eta * rms)
    return TimeSeries(signal.values + noise, signal.dt, signal.t0)


def write_csv(signal: TimeSeries, path) -> None:
    """Write ``t,u0,u1,...`` rows at full double precision (17 significant digits)."""
    header = "t," + ",".join(f"u{j}" for j in range(signal.n_components))
    data = np.column_stack([signal.times, signal.values])
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(header + "\n")
        for row in data:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def read_csv(path, dt: float | None = None) -> TimeSeries:
    """Read a series written by :func:`write_csv`.

    ``dt`` is recovered from the time column; for a single-row file it cannot
    be inferred and must be supplied (defaults to 1.0 when omitted).
    """
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip().split(",")
        if len(header) < 2 or header[0] != "t" or any(not h.startswith("u") for h in header[1:]):
            raise ValueError(f"unrecognized header in {path}: {header}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[1] != len(header):
        raise ValueError(f"column count mismatch in {path}")
    t = data[:, 0]
    values = data[:, 1:]
    if dt is None:
        dt = float((t[-1] - t[0]) / (len(t) - 1)) if len(t) > 1 else 1.0
    return TimeSeries(values, dt, t0=float(t[0]))
