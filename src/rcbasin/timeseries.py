"""Uniformly sampled multivariate signals, standardization and CSV tables.

A :class:`TimeSeries` carries a signal across the package's edges: single
integrated trajectories, training signals handed to ``train`` and the series
the CLI writes.  Inside the pipeline signals are plain arrays.
:class:`Standardizer` implements the shift/scale transform fitted on the
union of the training samples (zero mean, unit maximum absolute value per
component) and applies it to arrays of any leading shape.
:func:`frozen` makes every array the package shares between callers, cells or runs.
:func:`write_table` writes every CSV artifact: series, basin maps and sweeps;
:func:`read_table` and :func:`read_meta` read them back.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, SchemaMismatchError, ZeroRangeError


def frozen(values, dtype=float) -> np.ndarray:
    """A C-ordered copy of ``values`` in an immutable ``bytes`` buffer: numpy
    refuses ``flags.writeable = True`` on it and on every view of it."""
    a = np.asarray(values, dtype=dtype)
    return np.ndarray(a.shape, a.dtype, buffer=a.tobytes())


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
        object.__setattr__(self, "values", frozen(values))

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
        shift = frozen(np.atleast_1d(self.shift))
        scale = frozen(np.atleast_1d(self.scale))
        if shift.shape != scale.shape or shift.ndim != 1:
            raise DimensionMismatchError("shift and scale must be 1-d and equal length")
        if not np.all(np.isfinite(shift)) or not np.all(np.isfinite(scale)):
            raise ValueError("standardizer parameters must be finite")
        if np.any(scale <= 0.0):
            raise ZeroRangeError("scale components must be strictly positive")
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


def _ascii_lines(path) -> list[str]:
    """The stripped lines of a file; a byte that is not ASCII raises
    :class:`SchemaMismatchError` naming the file."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            return [line.strip() for line in fh]
    except UnicodeDecodeError as err:
        raise SchemaMismatchError(f"{path}: {err}") from err


def read_table(path) -> tuple[str, list[list[str]]]:
    """The header line and the cells of a :func:`write_table` CSV, as strings."""
    header, *lines = _ascii_lines(path) or [""]
    return header, [line.split(",") for line in lines]


def read_meta(path) -> dict:
    """The ``<path>.meta`` sidecar of a :func:`write_table` CSV, values by ``literal_eval``.

    Raises :class:`SchemaMismatchError` naming the first line that is not ``key=literal``.
    """
    meta = {}
    for line in _ascii_lines(str(path) + ".meta"):
        key, _, value = line.partition("=")
        try:
            meta[key] = ast.literal_eval(value)
        except (ValueError, SyntaxError) as err:
            raise SchemaMismatchError(f"{path}.meta: {line!r} is not a key=literal line") from err
    return meta


def write_csv(signal: TimeSeries, path) -> None:
    """Write ``t,u0,u1,...`` rows, each float in the shortest form that reads back exactly."""
    header = "t," + ",".join(f"u{j}" for j in range(signal.n_components))
    write_table(path, header, np.column_stack([signal.times, signal.values]))
