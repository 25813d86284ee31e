"""Uniformly sampled multivariate signals, standardization and CSV tables.

A :class:`TimeSeries` carries a signal across the package's edges: single
integrated trajectories, training signals handed to ``train`` and the series
the CLI reads and writes.  Inside the pipeline signals are plain arrays.
:class:`Standardizer` implements the shift/scale transform fitted on the
union of the training samples (zero mean, unit maximum absolute value per
component) and applies it to arrays of any leading shape.
:func:`write_table` writes every CSV artifact: series, basin maps and sweeps;
:func:`read_table` and :func:`read_meta` read them back.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, SchemaMismatchError, ZeroRangeError


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

    def observe(self, components: Sequence[int]) -> "TimeSeries":
        """Project onto the given components (partial observation)."""
        return TimeSeries(self.values[:, list(components)], self.dt, self.t0)


@dataclass(frozen=True)
class Standardizer:
    """Per-component shift/scale transform.

    ``apply_values`` maps v to (v - shift) / scale; fitted so the union of the
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

    def _check(self, values: np.ndarray):
        if np.shape(values)[-1] != self.n_components:
            raise DimensionMismatchError(
                f"expected {self.n_components} components, got {np.shape(values)[-1]}"
            )


def fit_standardizer(samples: np.ndarray) -> Standardizer:
    """Fit shift (mean) and scale (max absolute deviation) per component.

    ``samples`` is every training sample, stacked as ``(n_samples,
    n_components)``.  Raises :class:`ZeroRangeError` if some component is
    constant across the whole union, since a zero scale would make the
    transform non-invertible.
    """
    stacked = np.asarray(samples, dtype=float)
    shift = stacked.mean(axis=0)
    scale = np.abs(stacked - shift).max(axis=0)
    if np.any(scale == 0.0):
        dead = np.nonzero(scale == 0.0)[0].tolist()
        raise ZeroRangeError(f"components {dead} are constant over the training union")
    return Standardizer(shift, scale)


def write_table(path, header: str, rows, meta: dict | None = None) -> None:
    """Write ``rows`` as CSV under ``header``: floats by ``repr``, so they read
    back bit for bit, other cells by ``str``.  ``meta`` goes to ``<path>.meta``
    as ``key=repr(value)`` lines sorted by key.
    """
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, float) else str(v)
                              for v in row) + "\n")
    if meta is not None:
        with open(str(path) + ".meta", "w", encoding="ascii", newline="\n") as fh:
            for key in sorted(meta):
                fh.write(f"{key}={meta[key]!r}\n")


def read_table(path) -> tuple[str, list[list[str]]]:
    """The header line and the cells of a :func:`write_table` CSV, as strings."""
    with open(path, "r", encoding="ascii") as fh:
        return fh.readline().strip(), [line.strip().split(",") for line in fh]


def read_meta(path) -> dict:
    """The ``<path>.meta`` sidecar of a :func:`write_table` CSV, values by ``literal_eval``.

    Raises :class:`SchemaMismatchError` naming the first line that is not ``key=literal``.
    """
    meta = {}
    with open(str(path) + ".meta", "r", encoding="ascii") as fh:
        for line in fh:
            key, _, value = line.strip().partition("=")
            try:
                meta[key] = ast.literal_eval(value)
            except (ValueError, SyntaxError) as err:
                raise SchemaMismatchError(
                    f"{path}.meta: {line.strip()!r} is not a key=literal line") from err
    return meta


def write_csv(signal: TimeSeries, path) -> None:
    """Write ``t,u0,u1,...`` rows, each float in the shortest form that reads back exactly."""
    header = "t," + ",".join(f"u{j}" for j in range(signal.n_components))
    write_table(path, header, np.column_stack([signal.times, signal.values]))


def read_csv(path) -> TimeSeries:
    """Read a series written by :func:`write_csv`.

    ``dt`` is recovered from the time column; a single-row file gets 1.0.
    """
    header, rows = read_table(path)
    names = header.split(",")
    if len(names) < 2 or names[0] != "t" or any(not h.startswith("u") for h in names[1:]):
        raise ValueError(f"unrecognized header in {path}: {names}")
    if not rows or any(len(row) != len(names) for row in rows):
        raise ValueError(f"column count mismatch in {path}")
    data = np.array([[float(cell) for cell in row] for row in rows])
    t = data[:, 0]
    dt = float((t[-1] - t[0]) / (len(t) - 1)) if len(t) > 1 else 1.0
    return TimeSeries(data[:, 1:], dt, t0=float(t[0]))
