"""Benchmark multistable systems and their integrators.

Four systems are provided: a damped Duffing oscillator with two spiral
attractors, a decoupled double-well pair with four corner attractors, a
magnetic pendulum with three magnets and fractal-like basin boundaries, and
a Lorenz-like flow with two coexisting chaotic attractors.  Vector fields
are vectorized over leading axes, so an ensemble of states integrates in
lock step with no per-state Python overhead: fixed-step RK4, and adaptive
DOP853 whose every row is bit-identical to scipy's ``solve_ivp``.
"""

from __future__ import annotations

import importlib.util
import inspect
import os
from dataclasses import InitVar, dataclass, replace
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
import scipy

from .errors import NonFiniteError, StepSizeUnderflowError
from .timeseries import TimeSeries, frozen

FIXED_POINT = "fixed_point"
CHAOTIC = "chaotic"


@dataclass(frozen=True)
class AttractorDescriptor:
    """One known attractor: a fixed-point location or an on-attractor reference.

    Attributes:
        kind: ``"fixed_point"`` or ``"chaotic"``.
        label: Basin name used in reports and rendered maps.
        location: Equilibrium state (fixed-point kind only).
        reference: On-attractor sample trajectory (chaotic kind only).
    """

    kind: str
    label: str
    location: np.ndarray | None = None
    reference: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == FIXED_POINT:
            if self.location is None:
                raise ValueError("fixed-point attractor needs a location")
            name = "location"
        elif self.kind == CHAOTIC:
            if self.reference is None or np.shape(self.reference)[0] < 500:
                raise ValueError("chaotic attractor needs a reference of >= 500 samples")
            name = "reference"
        else:
            raise ValueError(f"unknown attractor kind {self.kind!r}")
        object.__setattr__(self, name, frozen(getattr(self, name)))


@dataclass(frozen=True)
class SystemDef:
    """A benchmark flow dx/dt = f(x) with its known attractors.

    ``vector_field`` accepts arrays of shape (..., dim) and returns the same
    shape.  ``energy`` is optional and only meaningful for systems where a
    potential-barrier convergence test applies.  ``params`` is accepted and
    ignored, so definitions written when systems stored their parameters
    still construct.
    """

    name: str
    dim: int
    vector_field: Callable[[np.ndarray], np.ndarray]
    attractors: tuple[AttractorDescriptor, ...]
    energy: Callable[[np.ndarray], np.ndarray] | None = None
    params: InitVar[dict | None] = None

    @property
    def chaotic(self) -> bool:
        """Whether the attractors are chaotic, classified by divergence."""
        return bool(self.attractors) and self.attractors[0].kind == CHAOTIC

    def attractor_locations(self, components: Sequence[int] | None = None) -> np.ndarray:
        """Stack fixed-point locations, optionally projected onto components."""
        locs = np.array([a.location for a in self.attractors])
        if components is not None:
            locs = locs[:, list(components)]
        return locs


# --------------------------------------------------------------------------
# Duffing oscillator:  x' = y,  y' = F0 + a y - b x - c x^3
# --------------------------------------------------------------------------

_DUFFING_A = -0.5
_DUFFING_B = -1.0
_DUFFING_C = 0.1


def duffing(f0: float = 0.0) -> SystemDef:
    """Damped Duffing oscillator, bistable for the parameters used here.

    Unforced, the stable equilibria sit at (+-sqrt(10), 0) with an unstable
    point at the origin; a constant forcing shifts all three roots.  The
    mechanical energy E = y^2/2 + b x^2/2 + c x^4/4 decreases along
    trajectories (dE/dt = a y^2 <= 0) and the origin's energy separates the
    two wells when f0 = 0.
    """
    a, b, c = _DUFFING_A, _DUFFING_B, _DUFFING_C

    def vf(state):
        state = np.asarray(state, dtype=float)
        x, y = state[..., 0], state[..., 1]
        # one result array: stacking the components costs more than computing them
        out = np.empty(state.shape[:-1] + (2,))
        out[..., 0] = y
        out[..., 1] = f0 + a * y - b * x - c * x**3
        return out

    def energy(state):
        state = np.asarray(state, dtype=float)
        x, y = state[..., 0], state[..., 1]
        return 0.5 * y**2 + 0.5 * b * x**2 + 0.25 * c * x**4

    # Equilibria solve c x^3 + b x - f0 = 0; stable iff -b - 3 c x^2 < 0.
    roots = np.roots([c, 0.0, b, -f0])
    real = np.sort(roots[np.abs(roots.imag) < 1e-9].real)
    stable = [x for x in real if -b - 3 * c * x**2 < 0]
    labels = ["minus", "plus"]
    attractors = tuple(
        AttractorDescriptor(FIXED_POINT, labels[i], location=np.array([x, 0.0]))
        for i, x in enumerate(stable)
    )
    return SystemDef(
        name="duffing",
        dim=2,
        vector_field=vf,
        attractors=attractors,
        energy=energy,
    )


# --------------------------------------------------------------------------
# Decoupled double wells:  x' = x(1 - x^2)/2,  y' = y(1 - y^2)/2
# --------------------------------------------------------------------------

def multi_well() -> SystemDef:
    """Two independent cubic flows; attractors at the unit-square corners.

    Because the equations decouple, the true basin of any initial condition
    is decided by the coordinate signs alone.
    """

    def vf(state):
        state = np.asarray(state, dtype=float)
        return 0.5 * state * (1.0 - state**2)

    corners = [(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)]
    attractors = tuple(
        AttractorDescriptor(FIXED_POINT, f"corner({int(cx):+d},{int(cy):+d})",
                            location=np.array([cx, cy]))
        for cx, cy in corners
    )
    return SystemDef(
        name="multi_well",
        dim=2,
        vector_field=vf,
        attractors=attractors,
    )


# --------------------------------------------------------------------------
# Magnetic pendulum: planar bob above three magnets, small-angle limit
# --------------------------------------------------------------------------

_PEND_OMEGA0 = 0.5
_PEND_GAMMA = 0.2
_PEND_HEIGHT = 0.2
_PEND_MAGNETS = frozen([
    [1.0 / np.sqrt(3.0), 0.0],
    [-0.5 / np.sqrt(3.0), -0.5],
    [-0.5 / np.sqrt(3.0), 0.5],
])
_PEND_LABELS = ("pink", "blue", "yellow")


def _pendulum_field(state):
    """Pendulum flow on states of shape (..., 4).

    A single state is a one-row batch, so it rounds exactly as a row of a
    batch does; the (4,) shape would flip the sign bit of some NaN results.
    """
    state = np.asarray(state, dtype=float)
    if state.ndim == 1:
        return _pendulum_field(state[None])[0]
    x, y = state[..., 0], state[..., 1]
    vx, vy = state[..., 2], state[..., 3]
    dx = _PEND_MAGNETS[:, 0] - x[..., None]
    dy = _PEND_MAGNETS[:, 1] - y[..., None]
    inv_d3 = (dx**2 + dy**2 + _PEND_HEIGHT**2) ** -1.5
    out = np.empty(state.shape)
    out[..., 0] = vx
    out[..., 1] = vy
    # np.add.reduce is np.sum without its Python wrapper
    out[..., 2] = -_PEND_OMEGA0**2 * x - _PEND_GAMMA * vx + np.add.reduce(dx * inv_d3, axis=-1)
    out[..., 3] = -_PEND_OMEGA0**2 * y - _PEND_GAMMA * vy + np.add.reduce(dy * inv_d3, axis=-1)
    return out


# Rest points: zero velocity and zero planar acceleration, each pulled
# slightly off its magnet toward the origin by the restoring term.  These are
# scipy.optimize.root's solutions from above each magnet at tol=1e-14, bit
# for bit; a test solves them again.
_PEND_EQUILIBRIA = frozen([
    [0.5627868693888634, 0.0, 0.0, 0.0],
    [-0.2813934346944317, -0.48738772580707046, 0.0, 0.0],
    [-0.2813934346944317, 0.48738772580707046, 0.0, 0.0],
])


def magnetic_pendulum() -> SystemDef:
    """Magnetic pendulum with three stable rest points and transient chaos."""
    attractors = tuple(AttractorDescriptor(FIXED_POINT, label, location=eq)
                       for label, eq in zip(_PEND_LABELS, _PEND_EQUILIBRIA))
    return SystemDef(
        name="magnetic_pendulum",
        dim=4,
        vector_field=_pendulum_field,
        attractors=attractors,
    )


# --------------------------------------------------------------------------
# Lorenz-like flow with two coexisting chaotic attractors
# --------------------------------------------------------------------------

_LORENZ_A = -10.0
_LORENZ_B = -4.0
_LORENZ_C = 18.1
# Coefficient on x is -ab/(a+b) = +20/7; the sign matters.
_LORENZ_KX = -(_LORENZ_A * _LORENZ_B) / (_LORENZ_A + _LORENZ_B)


def _lorenz_rhs(x, y, z):
    """The flow's three components, for floats and arrays alike."""
    return (_LORENZ_KX * x - y * z + _LORENZ_C,
            _LORENZ_A * y + x * z,
            _LORENZ_B * z + x * y)


def _lorenz_field(state):
    state = np.asarray(state, dtype=float)
    out = np.empty(state.shape[:-1] + (3,))
    out[..., 0], out[..., 1], out[..., 2] = _lorenz_rhs(state[..., 0], state[..., 1],
                                                        state[..., 2])
    return out


def _lorenz_rk4(start, dt: float, n: int, out: np.ndarray) -> None:
    """RK4 of one Lorenz start on Python floats, rounded as :func:`rk4_ensemble` rounds it.

    Python's float ``+``, ``-`` and ``*`` are the IEEE double operations of
    numpy's elementwise loops, with no FMA and no extended precision, and
    each stage repeats ``rk4_ensemble``'s operations in its order, so every
    sample is bit-identical to that row of the ensemble.  A step of a
    two-row ensemble makes about 100 numpy calls on six floats; on floats it
    takes about 1.4 µs a row.
    Writes the last ``len(out)`` of the n + 1 samples into ``out``, shape
    (len(out), 3).
    """
    x, y, z = (float(v) for v in start)
    half, sixth = 0.5 * dt, dt / 6.0
    first = n + 1 - len(out)
    if first == 0:
        out[0] = x, y, z
    for k in range(1, n + 1):
        a1, b1, c1 = _lorenz_rhs(x, y, z)
        a2, b2, c2 = _lorenz_rhs(x + half * a1, y + half * b1, z + half * c1)
        a3, b3, c3 = _lorenz_rhs(x + half * a2, y + half * b2, z + half * c2)
        a4, b4, c4 = _lorenz_rhs(x + dt * a3, y + dt * b3, z + dt * c3)
        x = x + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        y = y + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        z = z + sixth * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
        if k >= first:
            out[k - first] = x, y, z


@lru_cache(maxsize=1)
def _lorenz_references() -> tuple[np.ndarray, np.ndarray]:
    """On-attractor reference trajectories for the two lobes.

    Each seed runs 10^4 RK4 steps through :func:`_lorenz_rk4`, equal bit for
    bit to an ``rk4_ensemble`` run of it, and only the second half is kept.
    The flow is invariant under (y, z) -> (-y, -z), which maps the lobes onto
    each other; z keeps a single sign on each attractor, so the sign of z
    identifies the lobe.
    """
    seeds = ((0.0, 1.0, 1.0), (0.0, 1.0, -1.0))
    n = 10_000
    tail = np.empty((n - n // 2 + 1, 2, 3))
    for i, seed in enumerate(seeds):
        _lorenz_rk4(seed, 0.02, n, tail[:, i])
    if not np.all(np.isfinite(tail)):  # pragma: no cover
        raise NonFiniteError("RK4 lobe references of multistable_lorenz overflowed")
    upper, lower = (frozen(tail[:, i]) for i in range(2))
    if not (np.all(upper[:, 2] > 0) and np.all(lower[:, 2] < 0)):  # pragma: no cover
        raise RuntimeError("lobe references did not separate by z sign")
    return upper, lower


def _lorenz_system_bare() -> SystemDef:
    return SystemDef(name="multistable_lorenz", dim=3, vector_field=_lorenz_field,
                     attractors=())


def multistable_lorenz() -> SystemDef:
    """Lorenz-like system with an upper (z > 0) and a lower (z < 0) chaotic lobe."""
    upper, lower = _lorenz_references()
    return replace(_lorenz_system_bare(), attractors=(
        AttractorDescriptor(CHAOTIC, "upper", reference=upper),
        AttractorDescriptor(CHAOTIC, "lower", reference=lower),
    ))


_SYSTEM_FACTORIES = {
    "duffing": duffing,
    "multi_well": multi_well,
    "magnetic_pendulum": magnetic_pendulum,
    "multistable_lorenz": multistable_lorenz,
}


def system_parameters(name: str) -> tuple[str, ...]:
    """Names of the parameters system ``name`` takes, read from its factory."""
    try:
        factory = _SYSTEM_FACTORIES[name]
    except KeyError:
        raise ValueError(f"unknown system {name!r}; choose from "
                         f"{sorted(_SYSTEM_FACTORIES)}") from None
    return tuple(inspect.signature(factory).parameters)


def make_system(name: str, **params) -> SystemDef:
    """Build a benchmark system by name (parameters forwarded, e.g. f0)."""
    accepted = system_parameters(name)
    for key in params:
        if key not in accepted:
            raise ValueError(f"unknown parameter {key!r} of system {name!r}; "
                             f"choose from {list(accepted)}")
    return _SYSTEM_FACTORIES[name](**params)


# --------------------------------------------------------------------------
# Integrators
# --------------------------------------------------------------------------

def _kept_samples(keep, n: int) -> np.ndarray:
    """The sample indices ``keep`` names out of ``n + 1``; all of them when it is None."""
    if keep is None:
        return np.arange(n + 1)
    kept = np.asarray(keep)
    if (kept.ndim != 1 or not kept.size or kept.dtype.kind not in "iu"
            or kept[0] < 0 or kept[-1] > n or np.any(np.diff(kept) <= 0)):
        raise ValueError(f"keep must name increasing sample indices in [0, {n}]")
    return kept


def rk4_ensemble(sys: SystemDef, x0: np.ndarray, dt: float, n: int,
                 keep: Sequence[int] | None = None) -> np.ndarray:
    """Classical fixed-step RK4 on a batch of initial conditions.

    Args:
        x0: Initial states, shape (m, dim) or (dim,).
        n: Number of steps; a run has n + 1 samples.
        keep: Increasing indices of the samples to store; all n + 1 by
            default.  The others are computed and dropped.

    Returns:
        Array of shape (len(keep), m, dim); a single (dim,) start returns
        (len(keep), 1, dim).
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    x = np.array(x0, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    rows = {k: i for i, k in enumerate(_kept_samples(keep, n).tolist())}
    out = np.empty((len(rows),) + x.shape)
    if 0 in rows:
        out[rows[0]] = x
    f = sys.vector_field
    with np.errstate(invalid="ignore", over="ignore"):
        for k in range(1, n + 1):
            k1 = f(x)
            k2 = f(x + (0.5 * dt) * k1)
            k3 = f(x + (0.5 * dt) * k2)
            k4 = f(x + dt * k3)
            x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if k in rows:
                out[rows[k]] = x
    return out


def integrate_rk4(sys: SystemDef, x0: np.ndarray, dt: float, n: int) -> TimeSeries:
    """Integrate one trajectory with fixed-step RK4; sample interval equals dt."""
    out = rk4_ensemble(sys, np.asarray(x0, dtype=float), dt, n)[:, 0, :]
    if not np.all(np.isfinite(out)):
        raise NonFiniteError(f"RK4 trajectory of {sys.name} overflowed")
    return TimeSeries(out, dt)


@dataclass(frozen=True)
class AdaptiveEnsemble:
    """Adaptive trajectories of a batch of starts on a uniform sample grid.

    Attributes:
        values: Samples, shape (n_samples, m, dim), laid out like the result
            of :func:`rk4_ensemble`.  A failed row is NaN after the last
            sample it reached.
        failed: Per-row flag, shape (m,): the step size underflowed.
    """

    values: np.ndarray
    failed: np.ndarray

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]


# DOP853 step control, exactly as scipy.integrate.DOP853 has it.
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_ERROR_EXPONENT = -1 / (7 + 1)


@lru_cache(maxsize=1)
def _dop853_tableau():
    """The installed scipy's DOP853 coefficient module, run from its file alone.

    The file imports only numpy; importing ``scipy.integrate`` would also
    load scipy's optimize, special, fft and spatial packages.
    """
    path = os.path.join(os.path.dirname(scipy.__file__), "integrate", "_ivp",
                        "dop853_coefficients.py")
    spec = importlib.util.spec_from_file_location("rcbasin._dop853_coefficients", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pow(base: np.ndarray, exponent: float) -> np.ndarray:
    """``base ** exponent`` per element through libm's pow, as scalar ``**`` is.

    numpy's array power differs from it in the last bit.  Elements that are
    not positive come back unchanged; no step-control branch reads them.
    """
    return np.array([b ** exponent if b > 0 else b for b in base.tolist()])


def _norm(v: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row, through the same BLAS dot product."""
    return np.sqrt(np.matmul(v[:, None, :], v[:, :, None])[:, 0, 0])


def _rms(v: np.ndarray) -> np.ndarray:
    """scipy's RMS norm of each row."""
    return _norm(v) / v.shape[1] ** 0.5


def _min(a, b):
    """Python's ``min(a, b)`` per element: ``b`` only if ``b < a``."""
    return np.where(b < a, b, a)


def _max(a, b):
    """Python's ``max(a, b)`` per element: ``b`` only if ``b > a``."""
    return np.where(b > a, b, a)


def _combine(K: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """Every row's ``np.dot(K[:s].T, coefficients)`` as one stacked product."""
    return np.matmul(K[:, :len(coefficients)].transpose(0, 2, 1), coefficients)


def _dop853(f, y0: np.ndarray, t_eval: np.ndarray, t_bound: float, rtol: float,
            atol: float) -> tuple[np.ndarray, np.ndarray]:
    """scipy's DOP853 to ``t_bound`` on every row of ``y0`` at once, sampled at ``t_eval``.

    Rows advance in lock step, each with its own time, step size, rejected
    flag and failure status, and leave the active set when they finish or
    fail.  Each row rounds exactly as ``solve_ivp`` does: elementwise
    operations act per row, every ``np.dot`` is one stacked ``np.matmul``
    over items laid out as scipy lays them out, and powers are scalar.
    Returns the (len(t_eval), m, dim) samples and the failure flags.
    """
    _dop = _dop853_tableau()

    m, dim = y0.shape
    rtol = max(rtol, 100 * np.finfo(float).eps)
    out = np.full((len(t_eval), m, dim), np.nan)
    failed = np.zeros(m, dtype=bool)

    # select_initial_step
    fy = f(y0)
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(fy / scale)
    h0 = _min(np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1), t_bound)
    d2 = _rms((f(y0 + h0[:, None] * fy) - fy) / scale) / h0
    h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15), _max(1e-6, h0 * 1e-3),
                  _pow(0.01 / _max(d1, d2), 1 / (7 + 1)))
    h_abs = _min(_min(100 * h0, h1), t_bound)

    rows = np.arange(m)
    t = np.zeros(m)
    y = y0
    rejected = np.zeros(m, dtype=bool)
    done = np.zeros(m, dtype=bool)
    sampled = np.zeros(m, dtype=int)
    min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
    h_abs = np.where(h_abs < min_step, min_step, h_abs)
    while True:
        # a new step starts at least at min_step; a retry below it fails
        gone = h_abs < min_step
        failed[rows[gone]] = True
        keep = ~(gone | done)
        if not keep.all():
            rows, t, y, fy, h_abs, min_step, rejected, sampled = (
                a[keep] for a in (rows, t, y, fy, h_abs, min_step, rejected, sampled))
        if not rows.size:
            return out, failed

        t_new = t + h_abs
        t_new = np.where(t_new - t_bound > 0, t_bound, t_new)
        h = t_new - t
        h_abs = np.abs(h)
        K = np.empty((rows.size, _dop.N_STAGES_EXTENDED, dim))
        K[:, 0] = fy
        for s in range(1, _dop.N_STAGES):
            K[:, s] = f(y + _combine(K, _dop.A[s, :s]) * h[:, None])
        y_new = y + h[:, None] * _combine(K, _dop.B)
        K[:, _dop.N_STAGES] = f_new = f(y_new)

        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        err5 = _pow(_norm(_combine(K, _dop.E5) / scale), 2)
        err3 = _pow(_norm(_combine(K, _dop.E3) / scale), 2)
        error_norm = np.where((err5 == 0) & (err3 == 0), 0.0,
                              np.abs(h) * err5 / np.sqrt((err5 + 0.01 * err3) * dim))
        step = _SAFETY * _pow(error_norm, _ERROR_EXPONENT)
        accepted = error_norm < 1
        grow = np.where(error_norm == 0, _MAX_FACTOR, _min(_MAX_FACTOR, step))
        grow = np.where(rejected, _min(1, grow), grow)
        h_abs = h_abs * np.where(accepted, grow, _max(_MIN_FACTOR, step))
        rejected = ~accepted

        reached = np.searchsorted(t_eval, t_new, side="right")
        emit = np.flatnonzero(accepted & (reached > sampled))
        if emit.size:
            _dense_samples(f, out, rows[emit], K[emit], t[emit], h[emit], y[emit],
                           y_new[emit], f_new[emit], t_eval, sampled[emit], reached[emit])
        sampled = np.where(accepted, reached, sampled)
        t = np.where(accepted, t_new, t)
        y = np.where(accepted[:, None], y_new, y)
        fy = np.where(accepted[:, None], f_new, fy)
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = np.where(accepted & (h_abs < min_step), min_step, h_abs)
        done = accepted & (t - t_bound >= 0)


def _dense_samples(f, out, rows, K, t_old, h, y_old, y, f_new, t_eval, lo, hi) -> None:
    """Write each row's samples in t_eval[lo:hi] from its last step's interpolant.

    ``K`` holds the step's 13 stages; the three extra stages and the
    interpolant are scipy's ``Dop853DenseOutput``, evaluated elementwise.
    """
    _dop = _dop853_tableau()

    for s, a in enumerate(_dop.A[_dop.N_STAGES + 1:], start=_dop.N_STAGES + 1):
        K[:, s] = f(y_old + _combine(K, a[:s]) * h[:, None])
    delta = y - y_old
    F = np.empty((rows.size, _dop.INTERPOLATOR_POWER, y.shape[1]))
    F[:, 0] = delta
    F[:, 1] = h[:, None] * K[:, 0] - delta
    F[:, 2] = 2 * delta - h[:, None] * (f_new + K[:, 0])
    F[:, 3:] = h[:, None, None] * np.matmul(_dop.D, K)

    count = hi - lo
    which = np.repeat(np.arange(rows.size), count)
    points = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count - lo, count)
    x = ((t_eval[points] - t_old[which]) / h[which])[:, None]
    values = np.zeros((points.size, y.shape[1]))
    for i in range(F.shape[1]):
        values += F[which, F.shape[1] - 1 - i]
        values *= x if i % 2 == 0 else 1 - x
    values += y_old[which]
    out[points, rows[which]] = values


def integrate_adaptive(sys: SystemDef, x0: np.ndarray, t_end: float,
                       rel_tol: float = 1e-10, abs_tol: float = 1e-12,
                       sample_dt: float = 0.02,
                       keep: Sequence[int] | None = None) -> TimeSeries | AdaptiveEnsemble:
    """Integrate with the adaptive 8th-order Runge-Kutta pair DOP853.

    Hairer, Norsett & Wanner, *Solving ODEs I*, Sec. II.5, with scipy's step
    control.  The solution is resampled on a uniform grid of spacing
    ``sample_dt`` through dense output, so it matches the fixed-step format
    used everywhere else.  A batch of starts, shape (m, dim), integrates in
    lock step and returns an :class:`AdaptiveEnsemble` whose every row equals
    ``scipy.integrate.solve_ivp(..., method="DOP853", t_eval=...)`` bit for
    bit.  A single start, shape (dim,), is a batch of one: it returns a
    :class:`TimeSeries` and raises :class:`StepSizeUnderflowError` if its
    step size underflows.  Non-finite starts raise ``ValueError``.

    ``keep`` names the grid samples a batch returns, as increasing indices
    into the ``round(t_end / sample_dt) + 1`` grid times; all by default.
    The steps do not depend on it, and dense output is evaluated only at the
    kept times, which are the same floats, so every kept sample equals the
    full grid's sample bit for bit.
    """
    if rel_tol <= 0.0 or abs_tol <= 0.0 or sample_dt <= 0.0:
        raise ValueError("tolerances and sample_dt must be positive")
    n = int(round(t_end / sample_dt))
    if n < 1:
        raise ValueError("t_end must cover at least one sample interval")
    x = np.array(x0, dtype=float)
    single = x.ndim == 1
    if single:
        if keep is not None:
            raise ValueError("keep needs a batch of starts, shape (m, dim)")
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != sys.dim:
        raise ValueError(f"starts must have shape (dim,) or (m, dim) with dim {sys.dim}")
    if not np.isfinite(x).all():
        raise ValueError("all components of the initial states must be finite")
    grid = sample_dt * np.arange(n + 1)
    with np.errstate(all="ignore"):
        values, failed = _dop853(sys.vector_field, x, grid[_kept_samples(keep, n)],
                                 float(grid[-1]), rel_tol, abs_tol)
    if not single:
        return AdaptiveEnsemble(values, failed)
    if failed[0]:
        raise StepSizeUnderflowError("adaptive integration failed: Required step size "
                                     "is less than spacing between numbers.")
    return TimeSeries(values[:, 0, :], sample_dt)
