"""End-to-end basin-prediction experiments.

An experiment draws training trajectories from a sampling box (optionally
restricted to one basin by rejection sampling), trains a readout, then walks
a grid of test initial conditions: the true system is integrated to the
horizon and labeled, the first ``n_test`` observed samples synchronize the
reservoir, the closed loop forecasts the remaining steps, and the forecast
tail is classified and compared against the truth.

Truth integration and grid predictions are processed in fixed-size cell
chunks.  Chunk boundaries never depend on the parallelism degree, so results
are identical for any worker count.
"""

from __future__ import annotations

import hashlib
import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from typing import Sequence

import numpy as np

from . import classify as _classify
from .classify import (
    CORRECT,
    SPURIOUS,
    UNRESOLVED,
    WRONG,
    BasinMetrics,
    BasinOutcome,
    ConvergenceCriteria,
    make_outcome,
    score,
)
from .errors import (
    DimensionMismatchError,
    InvalidWindowError,
    SamplingExhaustedError,
    SchemaMismatchError,
)
from .reservoir import (
    ReservoirSpec,
    build_reservoir,
    drive_open_loop_batch,
    run_closed_loop_batch,
)
from .systems import CHAOTIC, SystemDef, integrate_adaptive, make_system, rk4_ensemble
from .timeseries import Standardizer, TimeSeries
from .training import TrainConfig, train

#: Cells processed per batch; fixed so numerics do not depend on parallelism.
CELL_CHUNK = 512


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete, explicit description of one basin experiment.

    All randomness flows from the three seeds; two runs with equal configs
    produce identical basin maps.
    """

    # system under study
    system: str
    system_params: dict = field(default_factory=dict)
    dt: float = 0.01
    adaptive_truth: bool = False
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    # what the reservoir sees
    observe: tuple[int, ...] = (0,)
    grid_axes: tuple[int, int] = (0, 1)
    # reservoir construction
    n_r: int = 200
    mean_degree: float = 10.0
    spectral_radius: float = 0.4
    input_strength: float = 1.0
    bias_strength: float = 0.5
    leakage: float = 1.0
    # training
    n_trans: int = 5
    alpha: float = 1e-12
    eta: float = 1e-5
    batch_max_states: int = 4096
    standardize_inputs: bool = True
    n_train: int = 10
    train_sig_len: int = 500
    train_half_width: float = 10.0
    restrict_to_basin: int | None = None
    reject_horizon: int = 4000
    max_attempt_factor: int = 1000
    # test grid and forecast window
    test_half_width: float = 10.0
    resolution: int = 50
    n_test: int = 10
    horizon: int = 2000
    # convergence criteria
    eps_c: float = 0.5
    tail_len: int = 25
    energy_barrier: float | None = None
    kl_threshold: float | None = None
    kl_tail: int = 500
    # seeds
    seed_reservoir: int = 0
    seed_sampling: int = 1
    seed_noise: int = 2

    def __post_init__(self):
        if self.resolution < 1:
            raise ValueError("resolution must be at least 1")
        if self.n_test < 1:
            raise ValueError("n_test must be at least 1")
        if self.horizon <= self.n_test:
            raise InvalidWindowError(
                f"horizon ({self.horizon}) must exceed n_test ({self.n_test}) "
                "to leave a prediction window")
        if self.train_half_width <= 0 or self.test_half_width <= 0:
            raise ValueError("half widths must be positive")
        if self.n_train < 1:
            raise ValueError("n_train must be at least 1")
        if len(self.observe) < 1:
            raise ValueError("observe at least one component")


_PRESETS = {
    "duffing": dict(
        system="duffing", dt=0.01, observe=(0,), grid_axes=(0, 1),
        n_r=200, input_strength=1.0, n_trans=5, alpha=1e-12, eta=1e-5,
        n_train=10, train_sig_len=500, train_half_width=10.0,
        test_half_width=10.0, resolution=150, n_test=10, horizon=2000,
        eps_c=0.5, energy_barrier=0.0,
    ),
    "multi_well": dict(
        system="multi_well", dt=0.01, observe=(0, 1), grid_axes=(0, 1),
        n_r=200, input_strength=1.0, n_trans=5, alpha=1e-12, eta=1e-5,
        n_train=25, train_sig_len=500, train_half_width=4.0,
        test_half_width=4.0, resolution=10, n_test=5, horizon=2000,
        eps_c=0.25,
    ),
    "magnetic_pendulum": dict(
        system="magnetic_pendulum", dt=0.02, adaptive_truth=True,
        # truth labels agree with rel_tol 1e-10 at these tolerances, at a
        # third of the integration cost
        rel_tol=1e-6, abs_tol=1e-8,
        observe=(0, 1), grid_axes=(0, 1),
        n_r=2500, input_strength=5.0, n_trans=25, alpha=1e-10, eta=1e-3,
        n_train=100, train_sig_len=500, train_half_width=1.5,
        test_half_width=1.5, resolution=300, n_test=100, horizon=2000,
        eps_c=0.25,
    ),
    "multistable_lorenz": dict(
        system="multistable_lorenz", dt=0.02, observe=(0, 1, 2), grid_axes=(1, 2),
        n_r=500, input_strength=0.5, n_trans=5, alpha=1e-10, eta=1e-3,
        n_train=1, train_sig_len=5000, train_half_width=20.0,
        test_half_width=20.0, resolution=100, n_test=50, horizon=5000,
        eps_c=1.0, kl_threshold=1.0, kl_tail=500,
    ),
}


def default_config(system: str, **overrides) -> ExperimentConfig:
    """Per-system default configuration; keyword overrides replace fields.

    The unforced Duffing preset enables the energy-barrier convergence test;
    it is dropped automatically when a nonzero forcing is requested because
    the barrier level then no longer separates the wells.
    """
    if system not in _PRESETS:
        raise ValueError(f"unknown system {system!r}; choose from {sorted(_PRESETS)}")
    merged = dict(_PRESETS[system])
    merged.update(overrides)
    forced = merged.get("system_params", {}).get("f0", 0.0) != 0.0
    if system == "duffing" and forced and "energy_barrier" not in overrides:
        merged["energy_barrier"] = None
    return ExperimentConfig(**merged)


def config_hash(cfg: ExperimentConfig) -> str:
    """Stable short hash of a config, for provenance stamping."""
    items = sorted(asdict(cfg).items())
    canon = ";".join(f"{k}={v!r}" for k, v in items)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def system_from_config(cfg: ExperimentConfig) -> SystemDef:
    return make_system(cfg.system, **cfg.system_params)


def criteria_from_config(cfg: ExperimentConfig) -> ConvergenceCriteria:
    return ConvergenceCriteria(eps_c=cfg.eps_c, tail_len=cfg.tail_len,
                               energy_barrier=cfg.energy_barrier,
                               kl_threshold=cfg.kl_threshold, kl_tail=cfg.kl_tail)


def reservoir_spec_from_config(cfg: ExperimentConfig) -> ReservoirSpec:
    return ReservoirSpec(n_r=cfg.n_r, mean_degree=cfg.mean_degree,
                         spectral_radius=cfg.spectral_radius,
                         input_strength=cfg.input_strength,
                         bias_strength=cfg.bias_strength, leakage=cfg.leakage,
                         n_in=len(cfg.observe), seed=cfg.seed_reservoir)


def train_config_from_config(cfg: ExperimentConfig) -> TrainConfig:
    return TrainConfig(n_trans=cfg.n_trans, alpha=cfg.alpha, eta=cfg.eta,
                       batch_max_states=cfg.batch_max_states, seed=cfg.seed_noise)


def make_grid(cfg: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    """Uniform test grid in the configured plane.

    Returns (coords, ics): coords has shape (resolution^2, 2) in row-major
    order over (axis0, axis1); ics embeds the coordinates into full state
    vectors with every off-plane component zero.
    """
    sys = system_from_config(cfg)
    ticks = np.linspace(-cfg.test_half_width, cfg.test_half_width, cfg.resolution)
    if cfg.resolution == 1:
        ticks = np.array([0.0])
    a0, a1 = np.meshgrid(ticks, ticks, indexing="ij")
    coords = np.column_stack([a0.ravel(), a1.ravel()])
    ics = np.zeros((coords.shape[0], sys.dim))
    ics[:, cfg.grid_axes[0]] = coords[:, 0]
    ics[:, cfg.grid_axes[1]] = coords[:, 1]
    return coords, ics


def integrate_truth(cfg: ExperimentConfig, sys: SystemDef, ic: np.ndarray,
                    n_steps: int) -> np.ndarray:
    """One truth trajectory of n_steps + 1 samples at the experiment step."""
    if cfg.adaptive_truth:
        ts = integrate_adaptive(sys, ic, t_end=n_steps * cfg.dt,
                                rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol,
                                sample_dt=cfg.dt)
        return ts.values
    return rk4_ensemble(sys, ic, cfg.dt, n_steps)[:, 0, :]


def _label_full_trajectory(cfg: ExperimentConfig, sys: SystemDef,
                           crit: ConvergenceCriteria, values: np.ndarray) -> int:
    """True basin label of a fully observed trajectory; -1 when unresolved."""
    if not np.all(np.isfinite(values)):
        return -1
    traj = TimeSeries(values, cfg.dt)
    if sys.attractors and sys.attractors[0].kind == CHAOTIC:
        label = _classify.classify_chaotic(traj, sys.attractors, crit)
    else:
        label = _classify.classify_fixed_point(traj, sys, crit, full_state=True)
    return label if isinstance(label, int) else -1


def _truth_chunk(cfg: ExperimentConfig, ics_chunk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Labels and observed test prefixes for one chunk of grid cells."""
    sys = system_from_config(cfg)
    crit = criteria_from_config(cfg)
    m = ics_chunk.shape[0]
    labels = np.empty(m, dtype=int)
    prefixes = np.empty((m, cfg.n_test, len(cfg.observe)))
    if cfg.adaptive_truth:
        trajectories = (integrate_truth(cfg, sys, ic, cfg.horizon - 1)
                        for ic in ics_chunk)
    else:
        ensemble = rk4_ensemble(sys, ics_chunk, cfg.dt, cfg.horizon - 1)
        trajectories = (ensemble[:, i, :] for i in range(m))
    for i, values in enumerate(trajectories):
        labels[i] = _label_full_trajectory(cfg, sys, crit, values)
        prefixes[i] = values[:cfg.n_test][:, list(cfg.observe)]
    return labels, prefixes


def truth_and_test_signals(cfg: ExperimentConfig, ics: np.ndarray,
                           parallel: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """True labels plus observed test prefixes for every initial condition.

    Work proceeds in fixed chunks of :data:`CELL_CHUNK` cells; with
    ``parallel > 1`` chunks are farmed out to worker processes.  Results are
    identical for any degree because cells never interact.
    """
    chunks = [ics[lo:lo + CELL_CHUNK] for lo in range(0, ics.shape[0], CELL_CHUNK)]
    if parallel > 1 and len(chunks) > 1:
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            results = list(pool.map(_truth_chunk, itertools.repeat(cfg), chunks))
    else:
        results = [_truth_chunk(cfg, chunk) for chunk in chunks]
    labels = np.concatenate([r[0] for r in results])
    prefixes = np.concatenate([r[1] for r in results])
    return labels, prefixes


#: Candidate initial conditions integrated per rejection-sampling block.
_REJECT_BLOCK = 32


def _candidate_trajectory(cfg: ExperimentConfig, ic: np.ndarray,
                          n_steps: int) -> np.ndarray:
    return integrate_truth(cfg, system_from_config(cfg), ic, n_steps)


def generate_training_set(cfg: ExperimentConfig, sys: SystemDef | None = None,
                          rng: np.random.Generator | None = None,
                          parallel: int = 1) -> list[TimeSeries]:
    """Draw training signals by rejection sampling in the training box.

    Initial conditions are uniform on the configured plane (off-plane
    components zero).  When ``restrict_to_basin`` is set, each candidate is
    integrated over the rejection horizon and kept only if it converges to
    the requested attractor; accepted trajectories contribute their first
    ``train_sig_len`` samples.  The observation mask is applied last.

    Candidates are drawn and examined in a fixed order, so the accepted set
    depends only on the generator state, not on the block size or the
    parallelism degree.  Fixed-step systems integrate candidate blocks as
    one ensemble.  Adaptive ones integrate candidates one at a time and
    stop at the last acceptance needed, or, with ``parallel > 1``, farm
    the whole block out to worker processes.

    Raises :class:`SamplingExhaustedError` once the attempt cap
    (``max_attempt_factor * n_train``) is reached.
    """
    if sys is None:
        sys = system_from_config(cfg)
    if rng is None:
        rng = np.random.default_rng(cfg.seed_sampling)
    crit = criteria_from_config(cfg)
    chaotic = bool(sys.attractors) and sys.attractors[0].kind == CHAOTIC
    if cfg.restrict_to_basin is None:
        n_steps = cfg.train_sig_len - 1
    else:
        n_steps = cfg.train_sig_len - 1 if chaotic else cfg.reject_horizon

    signals: list[TimeSeries] = []
    attempts = 0
    cap = cfg.max_attempt_factor * cfg.n_train
    pool = None
    if cfg.adaptive_truth and parallel > 1:
        pool = ProcessPoolExecutor(max_workers=parallel)
    try:
        while len(signals) < cfg.n_train:
            block = min(_REJECT_BLOCK, cap - attempts)
            if cfg.restrict_to_basin is None:
                block = min(block, cfg.n_train - len(signals))
            if block <= 0:
                raise SamplingExhaustedError(
                    f"accepted {len(signals)}/{cfg.n_train} signals in {attempts} "
                    "attempts; the requested basin may not intersect the sampling box")
            coords = rng.uniform(-cfg.train_half_width, cfg.train_half_width,
                                 size=(block, 2))
            ics = np.zeros((block, sys.dim))
            ics[:, cfg.grid_axes[0]] = coords[:, 0]
            ics[:, cfg.grid_axes[1]] = coords[:, 1]
            if cfg.adaptive_truth:
                if pool is not None and block > 1:
                    trajectories = list(pool.map(
                        _candidate_trajectory, itertools.repeat(cfg), ics,
                        itertools.repeat(n_steps)))
                else:
                    # lazily, so integration stops at the last acceptance
                    trajectories = (integrate_truth(cfg, sys, ic, n_steps)
                                    for ic in ics)
            else:
                ensemble = rk4_ensemble(sys, ics, cfg.dt, n_steps)
                trajectories = [ensemble[:, i, :] for i in range(block)]
            for values in trajectories:
                attempts += 1
                if cfg.restrict_to_basin is not None:
                    label = _label_full_trajectory(cfg, sys, crit, values)
                    if label != cfg.restrict_to_basin:
                        continue
                keep = values[:cfg.train_sig_len][:, list(cfg.observe)]
                signals.append(TimeSeries(keep, cfg.dt))
                if len(signals) == cfg.n_train:
                    break
    finally:
        if pool is not None:
            pool.shutdown()
    return signals


@dataclass
class BasinMap:
    """Grid of initial conditions with true labels and predicted outcomes.

    ``baseline_labels`` (nearest-attractor guess from the end of each test
    signal) is populated for fixed-point systems at run time; it is not part
    of the persisted schema and is ``None`` after loading.
    """

    coords: np.ndarray
    true_labels: np.ndarray
    outcomes: list[BasinOutcome]
    resolution: int
    metrics: BasinMetrics
    provenance: dict
    baseline_labels: np.ndarray | None = None

    @property
    def baseline_f_c(self) -> float | None:
        if self.baseline_labels is None:
            return None
        return float(np.mean(self.baseline_labels == self.true_labels))


def run_basin_experiment(cfg: ExperimentConfig, parallel: int = 1,
                         model=None) -> BasinMap:
    """Train a reservoir per the config and map the predicted basins.

    ``model`` may carry a pre-trained (reservoir, readout) pair, in which
    case the training stage is skipped.
    """
    if cfg.horizon <= cfg.n_test:
        raise InvalidWindowError("horizon must exceed n_test")
    sys = system_from_config(cfg)
    crit = criteria_from_config(cfg)
    chaotic = bool(sys.attractors) and sys.attractors[0].kind == CHAOTIC

    if model is not None:
        res, readout = model
        if res.n_in != len(cfg.observe):
            raise DimensionMismatchError(
                f"bundle expects {res.n_in} observed components, "
                f"config observes {len(cfg.observe)}")
    else:
        res = build_reservoir(reservoir_spec_from_config(cfg))
        signals = generate_training_set(cfg, sys, parallel=parallel)
        standardizer = (None if cfg.standardize_inputs
                        else Standardizer.identity(len(cfg.observe)))
        readout = train(res, signals, train_config_from_config(cfg),
                        standardizer=standardizer)

    coords, ics = make_grid(cfg)
    labels, prefixes = truth_and_test_signals(cfg, ics, parallel=parallel)

    n_pred = cfg.horizon - cfg.n_test
    needed_tail = min(n_pred, cfg.kl_tail if chaotic else cfg.tail_len)
    outcomes: list[BasinOutcome] = []
    for lo in range(0, ics.shape[0], CELL_CHUNK):
        chunk = prefixes[lo:lo + CELL_CHUNK]
        standardized = readout.standardizer.apply_values(chunk)
        states = drive_open_loop_batch(res, standardized)
        tails = run_closed_loop_batch(res, readout, states, n_pred, keep_last=needed_tail)
        for i in range(tails.shape[0]):
            tail = tails[i]
            if not np.all(np.isfinite(tail)):
                outcomes.append(BasinOutcome(UNRESOLVED))
                continue
            traj = TimeSeries(tail, cfg.dt)
            if chaotic:
                label = _classify.classify_chaotic(traj, sys.attractors, crit)
            else:
                # fully observed forecasts qualify for the energy test too
                label = _classify.classify_fixed_point(
                    traj, sys, crit, full_state=len(cfg.observe) == sys.dim,
                    components=cfg.observe)
            outcomes.append(make_outcome(label, int(labels[lo + i])))

    metrics = score(outcomes, labels)
    baseline = None
    if not chaotic:
        locations = sys.attractor_locations(cfg.observe)
        ends = prefixes[:, -1, :]
        diff = ends[:, None, :] - locations[None, :, :]
        baseline = np.argmin(np.einsum("ijk,ijk->ij", diff, diff), axis=1)
    provenance = {
        "schema": _MAP_SCHEMA,
        "config_hash": config_hash(cfg),
        "seed_reservoir": cfg.seed_reservoir,
        "seed_sampling": cfg.seed_sampling,
        "seed_noise": cfg.seed_noise,
    }
    return BasinMap(coords=coords, true_labels=labels, outcomes=outcomes,
                    resolution=cfg.resolution, metrics=metrics,
                    provenance=provenance, baseline_labels=baseline)


# --------------------------------------------------------------------------
# Persistence
# --------------------------------------------------------------------------

_MAP_SCHEMA = "rcbasin-basinmap-1"


def persist(basin_map: BasinMap, path) -> None:
    """Write the map as CSV plus a key-value sidecar (``<path>.meta``)."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("ic_0,ic_1,true_label,pred_label,outcome\n")
        for k in range(basin_map.coords.shape[0]):
            out = basin_map.outcomes[k]
            pred = -1 if out.attractor is None else out.attractor
            fh.write(f"{float(basin_map.coords[k, 0])!r},{float(basin_map.coords[k, 1])!r},"
                     f"{int(basin_map.true_labels[k])},{pred},{out.category}\n")
    meta = dict(basin_map.provenance)
    meta["resolution"] = basin_map.resolution
    meta.update(basin_map.metrics.as_flat_dict())
    with open(str(path) + ".meta", "w", encoding="ascii", newline="\n") as fh:
        for key in sorted(meta):
            fh.write(f"{key}={meta[key]!r}\n")


def load_basin_map(path) -> BasinMap:
    """Read a persisted map; metrics are recomputed from the cells."""
    import ast

    meta = {}
    with open(str(path) + ".meta", "r", encoding="ascii") as fh:
        for line in fh:
            key, _, value = line.strip().partition("=")
            meta[key] = ast.literal_eval(value)
    if meta.get("schema") != _MAP_SCHEMA:
        raise SchemaMismatchError(f"unexpected basin map schema {meta.get('schema')!r}")

    coords, truths, outcomes = [], [], []
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != "ic_0,ic_1,true_label,pred_label,outcome":
            raise SchemaMismatchError(f"unexpected basin map header {header!r}")
        for line in fh:
            c0, c1, true_label, pred, category = line.strip().split(",")
            coords.append((float(c0), float(c1)))
            truths.append(int(true_label))
            attractor = None if int(pred) < 0 else int(pred)
            outcomes.append(BasinOutcome(category, attractor=attractor))
    truths = np.array(truths, dtype=int)
    provenance = {k: v for k, v in meta.items()
                  if k in ("config_hash", "seed_reservoir", "seed_sampling", "seed_noise")}
    provenance = {"schema": _MAP_SCHEMA, **provenance}
    return BasinMap(coords=np.array(coords), true_labels=truths, outcomes=outcomes,
                    resolution=int(meta["resolution"]), metrics=score(outcomes, truths),
                    provenance=provenance)


# --------------------------------------------------------------------------
# Rendering
# --------------------------------------------------------------------------

#: Per-attractor colors for correct predictions, then category colors.
BASIN_COLORS = ((233, 79, 155), (66, 114, 222), (250, 176, 36), (0, 158, 115))
WRONG_COLOR = (255, 255, 0)
SPURIOUS_COLOR = (255, 255, 255)
UNRESOLVED_COLOR = (128, 128, 128)


def outcome_color(outcome: BasinOutcome) -> tuple[int, int, int]:
    if outcome.category == CORRECT:
        return BASIN_COLORS[outcome.attractor % len(BASIN_COLORS)]
    if outcome.category == WRONG:
        return WRONG_COLOR
    if outcome.category == SPURIOUS:
        return SPURIOUS_COLOR
    return UNRESOLVED_COLOR


def render_basin_map(basin_map: BasinMap, path) -> None:
    """Write a binary pixmap (P6), one pixel per grid cell.

    Byte layout: header ``P6\\n<w> <h>\\n255\\n`` followed by rows of RGB
    bytes.  Columns scan the first grid axis left to right; rows scan the
    second axis top to bottom with the largest value at the top.  Output is
    bit-exact for a given map.
    """
    res = basin_map.resolution
    if res * res != len(basin_map.outcomes):
        raise ValueError("outcome count does not match resolution^2")
    pixels = bytearray()
    for row in range(res):
        j = res - 1 - row
        for i in range(res):
            pixels.extend(outcome_color(basin_map.outcomes[i * res + j]))
    with open(path, "wb") as fh:
        fh.write(f"P6\n{res} {res}\n255\n".encode("ascii"))
        fh.write(bytes(pixels))


# --------------------------------------------------------------------------
# Parameter sweeps
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    n_train: int
    half_train: float
    half_test: float
    realization: int
    f_c: float
    f_spurious: float


def _sweep_cell(job) -> SweepRow:
    cfg, n_train, half_train, half_test, realization = job
    cell_cfg = replace(cfg, n_train=n_train, train_half_width=half_train,
                       test_half_width=half_test,
                       seed_reservoir=cfg.seed_reservoir + realization,
                       seed_sampling=cfg.seed_sampling + realization)
    basin_map = run_basin_experiment(cell_cfg, parallel=1)
    return SweepRow(n_train=n_train, half_train=half_train, half_test=half_test,
                    realization=realization, f_c=basin_map.metrics.f_c,
                    f_spurious=basin_map.metrics.f_spurious)


def run_sweep(cfg: ExperimentConfig, n_train_values: Sequence[int],
              train_half_values: Sequence[float], test_half_values: Sequence[float],
              realizations: int = 1, parallel: int = 1) -> tuple[list[SweepRow], list[str]]:
    """Full factorial sweep; every cell/realization is an independent job.

    Realization r runs with reservoir and sampling seeds offset by r, so
    realization 0 of any cell reproduces :func:`run_basin_experiment` on the
    equivalent config exactly.  Failed cells are recorded (row with NaN
    scores plus an error note) without aborting the sweep.

    Returns (rows, errors).
    """
    if not (n_train_values and train_half_values and test_half_values):
        raise ValueError("sweep axes must be non-empty")
    jobs = [(cfg, int(nt), float(ht), float(hv), r)
            for nt in n_train_values
            for ht in train_half_values
            for hv in test_half_values
            for r in range(realizations)]
    rows: list[SweepRow] = []
    errors: list[str] = []

    def handle(job, outcome, err):
        if err is None:
            rows.append(outcome)
        else:
            _, nt, ht, hv, r = job
            rows.append(SweepRow(nt, ht, hv, r, float("nan"), float("nan")))
            errors.append(f"cell(n_train={nt}, half_train={ht}, half_test={hv}, "
                          f"realization={r}): {err}")

    if parallel > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            futures = [pool.submit(_sweep_cell, job) for job in jobs]
            for job, fut in zip(jobs, futures):
                try:
                    handle(job, fut.result(), None)
                except Exception as exc:  # cell failures recorded, not fatal
                    handle(job, None, exc)
    else:
        for job in jobs:
            try:
                handle(job, _sweep_cell(job), None)
            except Exception as exc:
                handle(job, None, exc)
    return rows, errors


def write_sweep_csv(rows: Sequence[SweepRow], path,
                    provenance: dict | None = None) -> None:
    """Write sweep rows; provenance, when given, goes to a ``.meta`` sidecar."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("n_train,half_train,half_test,realization,f_c,f_spurious\n")
        for row in rows:
            fh.write(f"{row.n_train},{row.half_train!r},{row.half_test!r},"
                     f"{row.realization},{row.f_c!r},{row.f_spurious!r}\n")
    if provenance is not None:
        with open(str(path) + ".meta", "w", encoding="ascii", newline="\n") as fh:
            for key in sorted(provenance):
                fh.write(f"{key}={provenance[key]!r}\n")


def read_sweep_csv(path) -> list[SweepRow]:
    rows = []
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != "n_train,half_train,half_test,realization,f_c,f_spurious":
            raise SchemaMismatchError(f"unexpected sweep header {header!r}")
        for line in fh:
            nt, ht, hv, r, fc, fs = line.strip().split(",")
            rows.append(SweepRow(int(nt), float(ht), float(hv), int(r),
                                 float(fc), float(fs)))
    return rows
