"""Benchmark multistable systems and their integrators.

Four systems are provided: a damped Duffing oscillator with two spiral
attractors, a decoupled double-well pair with four corner attractors, a
magnetic pendulum with three magnets and fractal-like basin boundaries, and
a Lorenz-like flow with two coexisting chaotic attractors.  Vector fields
are vectorized over leading axes, so an ensemble of states integrates in
lock step with no per-state Python overhead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import solve_ivp

from .errors import NonFiniteError, StepSizeUnderflowError
from .timeseries import TimeSeries

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
            loc = np.array(self.location, dtype=float)
            loc.flags.writeable = False
            object.__setattr__(self, "location", loc)
        elif self.kind == CHAOTIC:
            if self.reference is None or np.shape(self.reference)[0] < 500:
                raise ValueError("chaotic attractor needs a reference of >= 500 samples")
            ref = np.array(self.reference, dtype=float)
            ref.flags.writeable = False
            object.__setattr__(self, "reference", ref)
        else:
            raise ValueError(f"unknown attractor kind {self.kind!r}")


@dataclass(frozen=True)
class SystemDef:
    """A benchmark flow dx/dt = f(x) with its known attractors.

    ``vector_field`` accepts arrays of shape (..., dim) and returns the same
    shape.  ``energy`` is optional and only meaningful for systems where a
    potential-barrier convergence test applies.
    """

    name: str
    dim: int
    vector_field: Callable[[np.ndarray], np.ndarray]
    params: dict
    attractors: tuple[AttractorDescriptor, ...]
    energy: Callable[[np.ndarray], np.ndarray] | None = None
    unstable_points: tuple = ()

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
        return np.stack([y, f0 + a * y - b * x - c * x**3], axis=-1)

    def energy(state):
        state = np.asarray(state, dtype=float)
        x, y = state[..., 0], state[..., 1]
        return 0.5 * y**2 + 0.5 * b * x**2 + 0.25 * c * x**4

    # Equilibria solve c x^3 + b x - f0 = 0; stable iff -b - 3 c x^2 < 0.
    roots = np.roots([c, 0.0, b, -f0])
    real = np.sort(roots[np.abs(roots.imag) < 1e-9].real)
    stable = [x for x in real if -b - 3 * c * x**2 < 0]
    unstable = [x for x in real if -b - 3 * c * x**2 >= 0]
    labels = ["minus", "plus"]
    attractors = tuple(
        AttractorDescriptor(FIXED_POINT, labels[i], location=np.array([x, 0.0]))
        for i, x in enumerate(stable)
    )
    return SystemDef(
        name="duffing",
        dim=2,
        vector_field=vf,
        params={"a": a, "b": b, "c": c, "f0": f0},
        attractors=attractors,
        energy=energy,
        unstable_points=tuple(np.array([x, 0.0]) for x in unstable),
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
        params={},
        attractors=attractors,
        unstable_points=(np.zeros(2),),
    )


# --------------------------------------------------------------------------
# Magnetic pendulum: planar bob above three magnets, small-angle limit
# --------------------------------------------------------------------------

_PEND_OMEGA0 = 0.5
_PEND_GAMMA = 0.2
_PEND_HEIGHT = 0.2
_PEND_MAGNETS = np.array([
    [1.0 / np.sqrt(3.0), 0.0],
    [-0.5 / np.sqrt(3.0), -0.5],
    [-0.5 / np.sqrt(3.0), 0.5],
])
_PEND_LABELS = ("pink", "blue", "yellow")


def magnet_distances(x, y) -> np.ndarray:
    """Distance from the bob at planar position (x, y) to each magnet.

    The bob hangs a height above the magnet plane, so the distance at zero
    planar offset equals that height.
    """
    dx = _PEND_MAGNETS[:, 0] - np.asarray(x)[..., None]
    dy = _PEND_MAGNETS[:, 1] - np.asarray(y)[..., None]
    return np.sqrt(dx**2 + dy**2 + _PEND_HEIGHT**2)


#: Magnet coordinates as Python floats, for the single-state field.
(_MX0, _MY0), (_MX1, _MY1), (_MX2, _MY2) = _PEND_MAGNETS.tolist()


def _pendulum_field(state):
    """Pendulum flow on states of shape (..., 4).

    A single state, the shape the adaptive integrator passes, takes a path
    in Python floats that is bit-identical to the batched numpy path.
    """
    state = np.asarray(state, dtype=float)
    if state.shape == (4,):
        return _pendulum_field_point(*state.tolist())
    x, y = state[..., 0], state[..., 1]
    vx, vy = state[..., 2], state[..., 3]
    dx = _PEND_MAGNETS[:, 0] - x[..., None]
    dy = _PEND_MAGNETS[:, 1] - y[..., None]
    inv_d3 = (dx**2 + dy**2 + _PEND_HEIGHT**2) ** -1.5
    ax = -_PEND_OMEGA0**2 * x - _PEND_GAMMA * vx + np.sum(dx * inv_d3, axis=-1)
    ay = -_PEND_OMEGA0**2 * y - _PEND_GAMMA * vy + np.sum(dy * inv_d3, axis=-1)
    return np.stack([vx, vy, ax, ay], axis=-1)


def _pendulum_field_point(x, y, vx, vy):
    """The batched field's operations, in its order, on one state."""
    dx0, dx1, dx2 = _MX0 - x, _MX1 - x, _MX2 - x
    dy0, dy1, dy2 = _MY0 - y, _MY1 - y, _MY2 - y
    h2 = _PEND_HEIGHT**2
    # numpy's SIMD power is not libm's pow and differs from Python's ** in
    # the last bit, so the power stays one numpy call
    i0, i1, i2 = (np.array([dx0 * dx0 + dy0 * dy0 + h2,
                            dx1 * dx1 + dy1 * dy1 + h2,
                            dx2 * dx2 + dy2 * dy2 + h2]) ** -1.5).tolist()
    # np.sum adds from +0.0, left to right
    ax = -_PEND_OMEGA0**2 * x - _PEND_GAMMA * vx + (0.0 + dx0 * i0 + dx1 * i1 + dx2 * i2)
    ay = -_PEND_OMEGA0**2 * y - _PEND_GAMMA * vy + (0.0 + dy0 * i0 + dy1 * i1 + dy2 * i2)
    return np.array([vx, vy, ax, ay])


@lru_cache(maxsize=1)
def _pendulum_equilibria() -> np.ndarray:
    """Relax the damped flow from above each magnet until the field vanishes.

    The equilibria are near, not exactly at, the magnet coordinates because
    of the restoring term; relaxation runs all three starts in lock step
    until every field norm is at or below 1e-10.
    """
    dt = 0.02
    states = np.column_stack([_PEND_MAGNETS, np.zeros((3, 2))])
    for _ in range(2_000_000):
        f1 = _pendulum_field(states)
        if np.max(np.sqrt(np.sum(f1**2, axis=-1))) <= 1e-10:
            break
        f2 = _pendulum_field(states + 0.5 * dt * f1)
        f3 = _pendulum_field(states + 0.5 * dt * f2)
        f4 = _pendulum_field(states + dt * f3)
        states = states + (dt / 6.0) * (f1 + 2 * f2 + 2 * f3 + f4)
    else:  # pragma: no cover
        raise RuntimeError("pendulum equilibrium relaxation did not converge")
    states.flags.writeable = False
    return states


def magnetic_pendulum() -> SystemDef:
    """Magnetic pendulum with three stable rest points and transient chaos."""
    eqs = _pendulum_equilibria()
    attractors = tuple(
        AttractorDescriptor(FIXED_POINT, _PEND_LABELS[i], location=eqs[i])
        for i in range(3)
    )
    return SystemDef(
        name="magnetic_pendulum",
        dim=4,
        vector_field=_pendulum_field,
        params={"omega0": _PEND_OMEGA0, "gamma": _PEND_GAMMA, "height": _PEND_HEIGHT,
                "magnets": _PEND_MAGNETS},
        attractors=attractors,
        unstable_points=(np.zeros(4),),
    )


# --------------------------------------------------------------------------
# Lorenz-like flow with two coexisting chaotic attractors
# --------------------------------------------------------------------------

_LORENZ_A = -10.0
_LORENZ_B = -4.0
_LORENZ_C = 18.1
# Coefficient on x is -ab/(a+b) = +20/7; the sign matters.
_LORENZ_KX = -(_LORENZ_A * _LORENZ_B) / (_LORENZ_A + _LORENZ_B)


def _lorenz_field(state):
    state = np.asarray(state, dtype=float)
    x, y, z = state[..., 0], state[..., 1], state[..., 2]
    return np.stack([
        _LORENZ_KX * x - y * z + _LORENZ_C,
        _LORENZ_A * y + x * z,
        _LORENZ_B * z + x * y,
    ], axis=-1)


@lru_cache(maxsize=1)
def _lorenz_references() -> tuple[np.ndarray, np.ndarray]:
    """On-attractor reference trajectories for the two lobes.

    Both are integrated together, as one two-member RK4 ensemble over 10^4
    steps, and the first half of each is discarded.  The flow is invariant
    under (y, z) -> (-y, -z), which maps the lobes onto each other; z keeps
    a single sign on each attractor, so the sign of z identifies the lobe.
    """
    seeds = np.array([(0.0, 1.0, 1.0), (0.0, 1.0, -1.0)])
    out = rk4_ensemble(_lorenz_system_bare(), seeds, dt=0.02, n=10_000)
    if not np.all(np.isfinite(out)):  # pragma: no cover
        raise NonFiniteError("RK4 lobe references of multistable_lorenz overflowed")
    tail = out[out.shape[0] // 2:]
    upper, lower = (np.ascontiguousarray(tail[:, i]) for i in range(2))
    if not (np.all(upper[:, 2] > 0) and np.all(lower[:, 2] < 0)):  # pragma: no cover
        raise RuntimeError("lobe references did not separate by z sign")
    upper.flags.writeable = False
    lower.flags.writeable = False
    return upper, lower


def _lorenz_system_bare() -> SystemDef:
    return SystemDef(name="multistable_lorenz", dim=3, vector_field=_lorenz_field,
                     params={"a": _LORENZ_A, "b": _LORENZ_B, "c": _LORENZ_C},
                     attractors=())


def multistable_lorenz() -> SystemDef:
    """Lorenz-like system with an upper (z > 0) and a lower (z < 0) chaotic lobe."""
    upper, lower = _lorenz_references()
    attractors = (
        AttractorDescriptor(CHAOTIC, "upper", reference=upper),
        AttractorDescriptor(CHAOTIC, "lower", reference=lower),
    )
    return SystemDef(
        name="multistable_lorenz",
        dim=3,
        vector_field=_lorenz_field,
        params={"a": _LORENZ_A, "b": _LORENZ_B, "c": _LORENZ_C},
        attractors=attractors,
    )


_SYSTEM_FACTORIES = {
    "duffing": duffing,
    "multi_well": multi_well,
    "magnetic_pendulum": magnetic_pendulum,
    "multistable_lorenz": multistable_lorenz,
}


def make_system(name: str, **params) -> SystemDef:
    """Build a benchmark system by name (parameters forwarded, e.g. f0)."""
    try:
        factory = _SYSTEM_FACTORIES[name]
    except KeyError:
        raise ValueError(f"unknown system {name!r}; choose from "
                         f"{sorted(_SYSTEM_FACTORIES)}") from None
    return factory(**params)


# --------------------------------------------------------------------------
# Integrators
# --------------------------------------------------------------------------

def rk4_ensemble(sys: SystemDef, x0: np.ndarray, dt: float, n: int) -> np.ndarray:
    """Classical fixed-step RK4 on a batch of initial conditions.

    Args:
        x0: Initial states, shape (m, dim) or (dim,).
        n: Number of steps; the result holds n + 1 samples per run.

    Returns:
        Array of shape (n + 1, m, dim) (leading run axis squeezed away for
        a single initial condition is NOT done; pass x0 2-d for batches).
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    x = np.array(x0, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    out = np.empty((n + 1,) + x.shape)
    out[0] = x
    f = sys.vector_field
    with np.errstate(invalid="ignore", over="ignore"):
        for k in range(n):
            k1 = f(x)
            k2 = f(x + (0.5 * dt) * k1)
            k3 = f(x + (0.5 * dt) * k2)
            k4 = f(x + dt * k3)
            x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            out[k + 1] = x
    return out


def integrate_rk4(sys: SystemDef, x0: np.ndarray, dt: float, n: int) -> TimeSeries:
    """Integrate one trajectory with fixed-step RK4; sample interval equals dt."""
    out = rk4_ensemble(sys, np.asarray(x0, dtype=float), dt, n)[:, 0, :]
    if not np.all(np.isfinite(out)):
        raise NonFiniteError(f"RK4 trajectory of {sys.name} overflowed")
    return TimeSeries(out, dt)


def integrate_adaptive(sys: SystemDef, x0: np.ndarray, t_end: float,
                       rel_tol: float = 1e-10, abs_tol: float = 1e-12,
                       sample_dt: float = 0.02) -> TimeSeries:
    """Integrate with an adaptive 8th-order Runge-Kutta pair (DOP853).

    The solution is resampled on a uniform grid of spacing ``sample_dt``
    through dense output, so the returned series matches the fixed-step
    format used everywhere else.
    """
    if rel_tol <= 0.0 or abs_tol <= 0.0 or sample_dt <= 0.0:
        raise ValueError("tolerances and sample_dt must be positive")
    n = int(round(t_end / sample_dt))
    if n < 1:
        raise ValueError("t_end must cover at least one sample interval")
    t_eval = sample_dt * np.arange(n + 1)
    sol = solve_ivp(lambda t, s: sys.vector_field(s), (0.0, t_eval[-1]),
                    np.asarray(x0, dtype=float), method="DOP853",
                    t_eval=t_eval, rtol=rel_tol, atol=abs_tol)
    if not sol.success:
        raise StepSizeUnderflowError(f"adaptive integration failed: {sol.message}")
    return TimeSeries(sol.y.T, sample_dt)


def integrate_with_process_noise(sys: SystemDef, x0: np.ndarray, dt: float, n: int,
                                 eta_p: float, seed: int) -> TimeSeries:
    """Euler-Maruyama path with additive white noise in every component.

    x_{k+1} = x_k + f(x_k) dt + sqrt(dt) eta_p xi_k with standard normal
    draws, independent per component and step.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if eta_p < 0.0:
        raise ValueError("eta_p must be non-negative")
    rng = np.random.default_rng(seed)
    x = np.array(x0, dtype=float)
    out = np.empty((n + 1, x.shape[0]))
    out[0] = x
    root_dt = np.sqrt(dt)
    for k in range(n):
        x = x + sys.vector_field(x) * dt + root_dt * eta_p * rng.standard_normal(x.shape)
        out[k + 1] = x
    if not np.all(np.isfinite(out)):
        raise NonFiniteError(f"noisy trajectory of {sys.name} overflowed")
    return TimeSeries(out, dt)
