"""End-to-end basin-prediction experiments.

An experiment draws training trajectories from a sampling box (optionally
restricted to one basin by rejection sampling), trains a readout, then walks
a grid of test initial conditions: the true system is integrated to the
horizon and labeled, the first ``n_test`` observed samples synchronize the
reservoir, the closed loop forecasts the remaining steps, and the forecast
tail is classified and compared against the truth.

The grid is mapped in fixed-size cell chunks, each one job from truth to
forecast label.  Chunk boundaries never depend on the parallelism degree, so
results are identical for any worker count.
"""

from __future__ import annotations

import concurrent.futures
import functools
import hashlib
import itertools
import math
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Sequence

import numpy as np

from . import classify as _classify
from . import training as _training
from .classify import (
    CORRECT,
    SPURIOUS,
    WRONG,
    BasinMetrics,
    BasinOutcome,
    ConvergenceCriteria,
    Label,
    make_outcome,
    score,
)
from .errors import (
    DimensionMismatchError,
    InvalidWindowError,
    NonFiniteError,
    SamplingExhaustedError,
    SchemaMismatchError,
    StepSizeUnderflowError,
)
from .reservoir import (
    Reservoir,
    ReservoirSpec,
    build_reservoir,
    drive_open_loop_batch,
    run_closed_loop_batch,
)
from .systems import SystemDef, integrate_adaptive, make_system, rk4_ensemble
from .timeseries import Standardizer, read_meta, read_table, write_table
from .training import Readout, TrainConfig

#: Cells processed per batch; fixed so numerics do not depend on parallelism.
CELL_CHUNK = 512


def _ini(section: str, default, key: str | None = None):
    """A config field set by ``key`` (the field name when omitted) in INI ``[section]``."""
    return field(default=default, metadata={"ini": (section, key)})


def _check_finite(name: str, value) -> None:
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete, explicit description of one basin experiment.

    All randomness flows from the three seeds; two runs with equal configs
    produce identical basin maps.  Construction runs every check, those of
    the reservoir, training and criteria configs built from it included.
    Each field but ``system`` and ``system_params`` names the INI section
    and key that set it.
    """

    # system under study
    system: str
    system_params: dict = field(default_factory=dict)
    dt: float = _ini("system", 0.01)
    adaptive_truth: bool = _ini("system", False)
    rel_tol: float = _ini("system", 1e-10)
    abs_tol: float = _ini("system", 1e-12)
    # what the reservoir sees
    observe: tuple[int, ...] = _ini("observation", (0,), key="components")
    grid_axes: tuple[int, int] = _ini("experiment", (0, 1))
    # reservoir construction
    n_r: int = _ini("reservoir", 200)
    mean_degree: float = _ini("reservoir", 10.0)
    spectral_radius: float = _ini("reservoir", 0.4)
    input_strength: float = _ini("reservoir", 1.0)
    bias_strength: float = _ini("reservoir", 0.5)
    leakage: float = _ini("reservoir", 1.0)
    # training
    n_trans: int = _ini("training", 5)
    alpha: float = _ini("training", 1e-12)
    eta: float = _ini("training", 1e-5)
    batch_max_states: int = _ini("training", 4096)
    standardize_inputs: bool = _ini("training", True)
    n_train: int = _ini("experiment", 10)
    train_sig_len: int = _ini("experiment", 500)
    train_half_width: float = _ini("experiment", 10.0)
    restrict_to_basin: int | None = _ini("experiment", None)
    reject_horizon: int = _ini("experiment", 4000)
    max_attempt_factor: int = _ini("experiment", 1000)
    # test grid and forecast window
    test_half_width: float = _ini("experiment", 10.0)
    resolution: int = _ini("experiment", 50)
    n_test: int = _ini("experiment", 10)
    horizon: int = _ini("experiment", 2000)
    # convergence criteria
    eps_c: float = _ini("criteria", 0.5)
    tail_len: int = _ini("criteria", 25)
    energy_barrier: float | None = _ini("criteria", None)
    kl_threshold: float | None = _ini("criteria", None)
    kl_tail: int = _ini("criteria", 500)
    # seeds
    seed_reservoir: int = _ini("seeds", 0, key="reservoir")
    seed_sampling: int = _ini("seeds", 1, key="sampling")
    seed_noise: int = _ini("seeds", 2, key="noise")

    def __post_init__(self):
        for f in fields(self):
            if "ini" in f.metadata:
                section, key = f.metadata["ini"]
                _check_finite(f"[{section}] {key or f.name}", getattr(self, f.name))
        for key, value in self.system_params.items():
            _check_finite(f"[system] {key}", value)
        for name in ("dt", "rel_tol", "abs_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"[system] {name} must be positive, got {getattr(self, name)!r}")
        if self.resolution < 1:
            raise ValueError("resolution must be at least 1")
        if self.n_test < 1:
            raise ValueError("n_test must be at least 1")
        if self.horizon <= self.n_test:
            raise InvalidWindowError(
                f"horizon ({self.horizon}) must exceed n_test ({self.n_test}) "
                "to leave a prediction window")
        n_pred = self.horizon - self.n_test
        if n_pred < self.tail_len:
            raise InvalidWindowError(
                f"horizon - n_test ({n_pred}) must be at least tail_len "
                f"({self.tail_len}): the forecast tail is labelled")
        if self.kl_threshold is not None and n_pred < self.kl_tail:
            raise InvalidWindowError(
                f"horizon - n_test ({n_pred}) must be at least kl_tail "
                f"({self.kl_tail}): the forecast tail is labelled")
        if self.train_half_width <= 0 or self.test_half_width <= 0:
            raise ValueError("half widths must be positive")
        if self.n_train < 1:
            raise ValueError("n_train must be at least 1")
        if self.train_sig_len < self.n_trans + 2:
            raise InvalidWindowError(
                f"train_sig_len ({self.train_sig_len}) must be at least n_trans + 2 "
                f"({self.n_trans + 2}): each signal must leave a fit pair")
        if self.max_attempt_factor < 1:
            raise ValueError("max_attempt_factor must be at least 1")
        if not self.observe or min(self.observe) < 0 or len(set(self.observe)) < len(self.observe):
            raise ValueError("observe one or more distinct components, each a non-negative index")
        if len(self.grid_axes) != 2 or len(set(self.grid_axes)) != 2 or min(self.grid_axes) < 0:
            raise ValueError("grid_axes must be two distinct non-negative indices")
        reservoir_spec_from_config(self)
        train_config_from_config(self)
        criteria_from_config(self)


#: Per-system presets: only the fields that differ from the defaults.
_PRESETS = {
    "duffing": dict(resolution=150, energy_barrier=0.0),
    "multi_well": dict(
        observe=(0, 1), n_train=25, train_half_width=4.0, test_half_width=4.0,
        resolution=10, n_test=5, eps_c=0.25,
    ),
    "magnetic_pendulum": dict(
        dt=0.02, adaptive_truth=True,
        # truth labels agree with rel_tol 1e-10 at these tolerances, at a
        # third of the integration cost
        rel_tol=1e-6, abs_tol=1e-8,
        observe=(0, 1), n_r=2500, input_strength=5.0, n_trans=25, alpha=1e-10,
        eta=1e-3, n_train=100, train_half_width=1.5, test_half_width=1.5,
        resolution=300, n_test=100, eps_c=0.25,
    ),
    "multistable_lorenz": dict(
        dt=0.02, observe=(0, 1, 2), grid_axes=(1, 2), n_r=500, input_strength=0.5,
        alpha=1e-10, eta=1e-3, n_train=1, train_sig_len=5000, train_half_width=20.0,
        test_half_width=20.0, resolution=100, n_test=50, horizon=5000,
        eps_c=1.0, kl_threshold=1.0,
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
    merged = {**_PRESETS[system], **overrides}
    forced = merged.get("system_params", {}).get("f0", 0.0) != 0.0
    if system == "duffing" and forced and "energy_barrier" not in overrides:
        merged["energy_barrier"] = None
    return ExperimentConfig(system, **merged)


#: The config fields every random stream is drawn from.
_SEEDS = ("seed_reservoir", "seed_sampling", "seed_noise")


def config_hash(cfg: ExperimentConfig) -> str:
    """Stable short hash of a config, for provenance stamping."""
    items = sorted(asdict(cfg).items())
    canon = ";".join(f"{k}={v!r}" for k, v in items)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def provenance(cfg: ExperimentConfig) -> dict:
    """Config hash and seeds: the stamp every persisted artifact carries."""
    return {"config_hash": config_hash(cfg), **{name: getattr(cfg, name) for name in _SEEDS}}


def system_from_config(cfg: ExperimentConfig) -> SystemDef:
    """The configured system, whose state must hold every observed component and grid axis."""
    sys = make_system(cfg.system, **cfg.system_params)
    if max(*cfg.observe, *cfg.grid_axes) >= sys.dim:
        raise DimensionMismatchError(
            f"components {list(cfg.observe)} and grid_axes {list(cfg.grid_axes)} must "
            f"index the {sys.dim} state components of {sys.name}")
    if sys.chaotic and tuple(cfg.observe) != tuple(range(sys.dim)):
        raise DimensionMismatchError(
            f"{sys.name} is chaotic: [observation] components {list(cfg.observe)} must be "
            f"{list(range(sys.dim))}, the full state its KL references hold")
    if sys.chaotic and cfg.kl_threshold is None:
        raise ValueError(f"{sys.name} is chaotic: its labels need [criteria] kl_threshold")
    return sys


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


def _embed(cfg: ExperimentConfig, dim: int, coords: np.ndarray) -> np.ndarray:
    """Full states with ``coords`` on the grid plane and every other component zero."""
    ics = np.zeros((coords.shape[0], dim))
    ics[:, cfg.grid_axes[0]] = coords[:, 0]
    ics[:, cfg.grid_axes[1]] = coords[:, 1]
    return ics


def make_grid(cfg: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    """Uniform test grid in the configured plane.

    Returns (coords, ics): coords has shape (resolution^2, 2) in row-major
    order over (axis0, axis1); ics embeds the coordinates into full state
    vectors with every off-plane component zero.
    """
    ticks = np.linspace(-cfg.test_half_width, cfg.test_half_width, cfg.resolution)
    if cfg.resolution == 1:
        ticks = np.array([0.0])
    a0, a1 = np.meshgrid(ticks, ticks, indexing="ij")
    coords = np.column_stack([a0.ravel(), a1.ravel()])
    return coords, _embed(cfg, system_from_config(cfg).dim, coords)


def _trajectories(cfg: ExperimentConfig, sys: SystemDef, ics: np.ndarray, n_steps: int,
                  head: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Trajectories over n_steps steps from each row of ics, as one ensemble.

    Every sample is kept unless ``head`` is given; then only the first
    ``head`` samples and the :func:`labelled_tail` are, since nothing else
    is read.  Returns the (m, kept samples, dim) block and each row's
    failure flag.  A failed adaptive row is NaN after its last sample; RK4
    rows never fail.  Every step adds to the previous state, so a row that
    turns non-finite stays so and its kept tail is not finite either.
    """
    keep = None
    if head is not None:
        tail = labelled_tail(sys, criteria_from_config(cfg))
        keep = np.r_[:min(head, n_steps + 1), max(head, n_steps + 1 - tail):n_steps + 1]
    if cfg.adaptive_truth:
        result = integrate_adaptive(sys, ics, t_end=n_steps * cfg.dt,
                                    rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol,
                                    sample_dt=cfg.dt, keep=keep)
        return result.values.transpose(1, 0, 2), result.failed
    block = rk4_ensemble(sys, ics, cfg.dt, n_steps, keep=keep).transpose(1, 0, 2)
    return block, np.zeros(len(ics), dtype=bool)


def _underflow(ic: np.ndarray) -> StepSizeUnderflowError:
    return StepSizeUnderflowError(f"adaptive integration from {ic.tolist()} failed: "
                                  "the step size underflowed")


def integrate_truth(cfg: ExperimentConfig, sys: SystemDef, ics: np.ndarray, n_steps: int,
                    head: int | None = None) -> np.ndarray:
    """The (m, n_steps + 1, dim) truth from the rows of ics; an underflow names its row.

    With ``head``, only the first ``head`` samples and the labelled tail are
    kept, as :func:`_trajectories` keeps them.
    """
    ics = np.asarray(ics, dtype=float)
    block, failed = _trajectories(cfg, sys, ics, n_steps, head)
    if failed.any():
        raise _underflow(ics[np.argmax(failed)])
    return block


def label_trajectories(sys: SystemDef, crit: ConvergenceCriteria, block: np.ndarray,
                       components: Sequence[int]) -> list[Label]:
    """Classifier label of each trajectory in an (m, n, len(components)) block.

    The one labelling rule of truth, training candidates and forecasts; only
    a block of every state component, in order, qualifies for the energy test.
    """
    if sys.chaotic:
        return _classify.classify_chaotic(block, sys.attractors, crit)
    return _classify.classify_fixed_point(
        block, sys, crit, full_state=tuple(components) == tuple(range(sys.dim)),
        components=components)


def labelled_tail(sys: SystemDef, crit: ConvergenceCriteria) -> int:
    """Trailing samples :func:`label_trajectories` reads from each trajectory."""
    return crit.kl_tail if sys.chaotic else crit.tail_len


def _run_jobs(fn, jobs: Sequence, parallel: int) -> list:
    """``[fn(job) for job in jobs]``, in worker processes when ``parallel > 1``.

    The pool starts no more workers than there are jobs.  Results come back
    in job order either way.  An exception raised by ``fn``, or a worker's
    death, ends the whole run.  The pool class is looked up only here, so
    serial runs never import ``multiprocessing``.
    """
    if parallel > 1 and len(jobs) > 1:
        workers = min(parallel, len(jobs))
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, jobs))
    return [fn(job) for job in jobs]


def truth_and_test_signals(cfg: ExperimentConfig, ics: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """True labels plus observed test prefixes for every initial condition.

    All cells are integrated as one ensemble by either integrator, and each
    row's result does not depend on the others.  A label is -1 when the
    trajectory is unresolved or not finite.  Raises
    :class:`StepSizeUnderflowError` if any adaptive cell fails.
    """
    sys = system_from_config(cfg)
    block = integrate_truth(cfg, sys, ics, cfg.horizon - 1, head=cfg.n_test)
    labels = np.array([label if isinstance(label, int) else -1
                       for label in label_trajectories(sys, criteria_from_config(cfg), block,
                                                       range(sys.dim))], dtype=int)
    # C-ordered, the layout the synchronization's BLAS input product is pinned at
    return labels, np.ascontiguousarray(block[:, :cfg.n_test, list(cfg.observe)])


#: Smallest restricted rejection-sampling block, and the margin added to the
#: draws a block is expected to need.
_REJECT_BLOCK = 32


def generate_training_set(cfg: ExperimentConfig,
                          sys: SystemDef | None = None) -> np.ndarray:
    """Draw the training signals, one ``(n_train, train_sig_len, n_obs)`` array.

    Initial conditions are uniform on the configured plane (off-plane
    components zero).  When ``restrict_to_basin`` is set, each candidate is
    integrated over the rejection horizon and kept only if it is finite and
    converges to the requested attractor; accepted trajectories fill the
    array in draw order with their first ``train_sig_len`` observed samples.

    Candidates are drawn in blocks, each integrated as one ensemble by
    either integrator, and examined in draw order.  Uniform draws come in
    sequence and every row of an ensemble is integrated independently of
    its width, so the accepted set depends only on the generator state, not
    on the block widths.  A candidate whose adaptive integration failed
    raises :class:`StepSizeUnderflowError` when it is examined, and an
    unrestricted candidate that is not finite raises
    :class:`NonFiniteError`; candidates after the last acceptance needed are
    never examined (nor labelled).

    Blocks are sized from the ``need`` signals still missing: ``need`` when
    sampling is unrestricted, ``max(_REJECT_BLOCK, need)`` before the first
    acceptance, and afterwards the draws the acceptance rate so far expects,
    ``ceil(need * attempts / accepted)``, plus a ``_REJECT_BLOCK`` margin.
    Every block is clamped to :data:`CELL_CHUNK` and to the attempts left
    under the cap.  A block keeps of each candidate only the first
    ``train_sig_len`` samples and the :func:`labelled_tail`, so it holds at
    most ``CELL_CHUNK * (train_sig_len + labelled_tail) * dim`` floats
    however long the rejection horizon.

    Raises :class:`SamplingExhaustedError` before the first draw if
    ``restrict_to_basin`` names no attractor of the system, and once the
    attempt cap (``max_attempt_factor * n_train``) is reached.  Raises
    :class:`InvalidWindowError` before the first draw if a restricted
    fixed-point system's ``reject_horizon`` is shorter than the training
    signals it must supply, or if restricted candidates are shorter than
    :func:`labelled_tail`.
    """
    if sys is None:
        sys = system_from_config(cfg)
    rng = np.random.default_rng(cfg.seed_sampling)
    basin = cfg.restrict_to_basin
    if basin is not None and not 0 <= basin < len(sys.attractors):
        raise SamplingExhaustedError(
            f"restrict_to_basin {basin} names no attractor: {sys.name} has "
            f"{len(sys.attractors)}")
    if basin is None or sys.chaotic:
        key, n_steps = "train_sig_len", cfg.train_sig_len - 1
    else:
        key, n_steps = "reject_horizon", cfg.reject_horizon
        if n_steps < cfg.train_sig_len - 1:
            raise InvalidWindowError(
                f"reject_horizon ({n_steps}) must be at least train_sig_len - 1 "
                f"({cfg.train_sig_len - 1}): accepted trajectories supply the "
                "training signals")
    crit = criteria_from_config(cfg)
    if basin is not None and n_steps + 1 < (tail := labelled_tail(sys, crit)):
        raise InvalidWindowError(
            f"[experiment] {key} ({getattr(cfg, key)}) gives {n_steps + 1} samples, fewer "
            f"than the {tail} that label a candidate")

    signals = np.empty((cfg.n_train, cfg.train_sig_len, len(cfg.observe)))
    accepted = 0
    attempts = 0
    cap = cfg.max_attempt_factor * cfg.n_train
    while accepted < cfg.n_train:
        need = cfg.n_train - accepted
        if basin is None:
            block = need
        elif not accepted:
            block = max(_REJECT_BLOCK, need)
        else:
            block = -(-need * attempts // accepted) + _REJECT_BLOCK
        block = min(block, CELL_CHUNK, cap - attempts)
        if block <= 0:
            hint = ("; the requested basin may not intersect the sampling box"
                    if not accepted else "")
            raise SamplingExhaustedError(
                f"accepted {accepted}/{cfg.n_train} signals in {attempts} "
                f"attempts ({accepted / attempts:.1%} acceptance), the cap of "
                f"max_attempt_factor * n_train = {cap}{hint}")
        coords = rng.uniform(-cfg.train_half_width, cfg.train_half_width,
                             size=(block, 2))
        ics = _embed(cfg, sys.dim, coords)
        trajectories, failed = _trajectories(cfg, sys, ics, n_steps, cfg.train_sig_len)
        for ic, values, fail in zip(ics, trajectories, failed):
            attempts += 1
            if fail:
                raise _underflow(ic)
            if basin is not None:
                if label_trajectories(sys, crit, values[None], range(sys.dim))[0] != basin:
                    continue
            elif not np.isfinite(values).all():
                raise NonFiniteError(f"training trajectory from {ic.tolist()} is not finite")
            signals[accepted] = values[:cfg.train_sig_len, list(cfg.observe)]
            accepted += 1
            if accepted == cfg.n_train:
                break
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


def train_from_config(cfg: ExperimentConfig,
                      sys: SystemDef | None = None) -> tuple[Reservoir, Readout, float]:
    """Build the reservoir, sample the training set and fit the readout.

    Inputs are standardized unless ``standardize_inputs`` is off, in which
    case the identity transform is used.  Returns ``(res, readout, mse)``
    with the mean squared training error.
    """
    res = build_reservoir(reservoir_spec_from_config(cfg))
    signals = generate_training_set(cfg, sys)
    standardizer = (None if cfg.standardize_inputs
                    else Standardizer.identity(len(cfg.observe)))
    readout, mse = _training.train_with_mse(res, signals, train_config_from_config(cfg),
                                            standardizer=standardizer)
    return res, readout, mse


def check_model(cfg: ExperimentConfig, res: Reservoir) -> None:
    """Raise :class:`DimensionMismatchError` unless ``res`` reads the observed components."""
    if res.n_in != len(cfg.observe):
        raise DimensionMismatchError(f"bundle expects {res.n_in} observed components, "
                                     f"config observes {len(cfg.observe)}")


def forecast_cells(cfg: ExperimentConfig, res: Reservoir, readout: Readout, ics: np.ndarray,
                   keep_last: int | None = None
                   ) -> tuple[np.ndarray, list[Label], np.ndarray, np.ndarray]:
    """Truth and forecast labels, test prefixes and the last ``keep_last`` forecast samples.

    The prefixes synchronize the reservoir and the closed loop runs to the horizon.  Takes
    at most :data:`CELL_CHUNK` cells: the batch width sets the forecast's last bits.
    """
    if len(ics) > CELL_CHUNK:
        raise ValueError(f"at most CELL_CHUNK = {CELL_CHUNK} cells, got {len(ics)}")
    sys, crit = system_from_config(cfg), criteria_from_config(cfg)
    truth, prefixes = truth_and_test_signals(cfg, ics)
    states = drive_open_loop_batch(res, readout.standardizer.apply_values(prefixes))
    forecasts = run_closed_loop_batch(res, readout, states, cfg.horizon - cfg.n_test,
                                      keep_last=keep_last)
    return truth, label_trajectories(sys, crit, forecasts, cfg.observe), prefixes, forecasts


def _map_chunk(cfg: ExperimentConfig, res: Reservoir, readout: Readout,
               ics_chunk: np.ndarray) -> tuple[np.ndarray, list[Label], np.ndarray]:
    """Truth labels, forecast labels and last observed test samples of one chunk.

    The system is rebuilt here because a :class:`SystemDef` holds closures
    and cannot be sent to a worker.
    """
    tail = labelled_tail(system_from_config(cfg), criteria_from_config(cfg))
    truth, predicted, prefixes, _ = forecast_cells(cfg, res, readout, ics_chunk, keep_last=tail)
    return truth, predicted, prefixes[:, -1, :].copy()


def run_basin_experiment(cfg: ExperimentConfig, parallel: int = 1,
                         model=None) -> BasinMap:
    """Train a reservoir per the config and map the predicted basins.

    ``model`` may carry a pre-trained (reservoir, readout) pair, in which
    case the training stage is skipped.  The grid is mapped in fixed chunks
    of :data:`CELL_CHUNK` cells, in worker processes when ``parallel > 1``.
    """
    sys = system_from_config(cfg)

    if model is not None:
        res, readout = model
        check_model(cfg, res)
    else:
        res, readout, _ = train_from_config(cfg, sys)

    coords, ics = make_grid(cfg)
    chunks = [ics[lo:lo + CELL_CHUNK] for lo in range(0, ics.shape[0], CELL_CHUNK)]
    labels, predicted, ends = zip(*_run_jobs(functools.partial(_map_chunk, cfg, res, readout),
                                             chunks, parallel))
    labels = np.concatenate(labels)
    outcomes = [make_outcome(label, int(truth))
                for label, truth in zip([p for chunk in predicted for p in chunk], labels)]

    metrics = score(outcomes, labels)
    baseline = (None if sys.chaotic
                else _classify.nearest_attractor(np.concatenate(ends), sys, cfg.observe))
    return BasinMap(coords=coords, true_labels=labels, outcomes=outcomes,
                    resolution=cfg.resolution, metrics=metrics,
                    provenance={"schema": _MAP_SCHEMA, **provenance(cfg)},
                    baseline_labels=baseline)


# --------------------------------------------------------------------------
# Persistence
# --------------------------------------------------------------------------

_MAP_SCHEMA = "rcbasin-basinmap-1"
_MAP_HEADER = "ic_0,ic_1,true_label,pred_label,outcome"


def persist(basin_map: BasinMap, path) -> None:
    """Write the map as CSV plus a key-value sidecar (``<path>.meta``)."""
    rows = ((float(c0), float(c1), int(truth), -1 if out.attractor is None else out.attractor,
             out.category) for (c0, c1), truth, out
            in zip(basin_map.coords, basin_map.true_labels, basin_map.outcomes))
    meta = {**basin_map.provenance, "resolution": basin_map.resolution,
            **basin_map.metrics.as_flat_dict()}
    write_table(path, _MAP_HEADER, rows, meta)


def load_basin_map(path) -> BasinMap:
    """Read a persisted map; metrics are recomputed from the cells."""
    header, rows = read_table(path)
    meta = read_meta(path)
    if meta.get("schema") != _MAP_SCHEMA:
        raise SchemaMismatchError(f"{path}.meta: unexpected map schema {meta.get('schema')!r}")
    if "resolution" not in meta:
        raise SchemaMismatchError(f"{path}.meta: no resolution")
    resolution = meta["resolution"]
    if type(resolution) is not int or resolution < 1:  # a bool is not an int here
        raise SchemaMismatchError(f"{path}.meta: resolution {resolution!r} is not an int >= 1")
    if header != _MAP_HEADER:
        raise SchemaMismatchError(f"{path}: unexpected basin map header {header!r}")

    coords, truths, outcomes = [], [], []
    for line, row in enumerate(rows, start=2):
        try:
            c0, c1, truth, pred, category = row
            coords.append((float(c0), float(c1)))
            truths.append(int(truth))
            outcomes.append(BasinOutcome(category, attractor=None if int(pred) < 0 else int(pred)))
        except ValueError as err:
            raise SchemaMismatchError(f"{path}: line {line}: {err}") from err
    if len(rows) != resolution ** 2:
        raise SchemaMismatchError(f"{path}: {len(rows)} cells, not resolution^2")
    truths = np.array(truths, dtype=int)
    stamp = {key: meta[key] for key in ("config_hash", *_SEEDS) if key in meta}
    return BasinMap(coords=np.array(coords), true_labels=truths, outcomes=outcomes,
                    resolution=resolution, metrics=score(outcomes, truths),
                    provenance={"schema": _MAP_SCHEMA, **stamp})


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

def _sweep_cell(job) -> tuple[tuple, str | None]:
    """One sweep cell's row, or a row of NaN scores and the cell's error note."""
    cfg, cell, realization = job
    try:
        cfg = replace(cfg, **cell)
        metrics = run_basin_experiment(replace(
            cfg, seed_reservoir=cfg.seed_reservoir + realization,
            seed_sampling=cfg.seed_sampling + realization)).metrics
    except Exception as exc:  # a cell's failure is recorded, not fatal
        values = ", ".join(f"{name}={value}" for name, value in cell.items())
        return ((*cell.values(), realization, float("nan"), float("nan")),
                f"cell({values}, realization={realization}): {exc}")
    return (*cell.values(), realization, metrics.f_c, metrics.f_spurious), None


def run_sweep(cfg: ExperimentConfig, axes: dict[str, Sequence],
              realizations: int = 1, parallel: int = 1) -> tuple[list[tuple], list[str]]:
    """Sweep crossing ``axes`` (field name -> values) in listing order, the
    last varying fastest and realizations innermost; each cell/realization is
    an independent job whose row is ``(*values, realization, f_c, f_spurious)``.

    Realization r offsets the cell's reservoir and sampling seeds by r, so
    realization 0 of any cell reproduces :func:`run_basin_experiment` on the
    equivalent config exactly.  A cell that raises is recorded (row with NaN
    scores plus an error note) without aborting the sweep; a worker process
    that dies ends it.

    Returns (rows, errors).
    """
    unknown = set(axes) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise ValueError(f"sweep axes name no config field: {sorted(unknown)}")
    if not axes or not all(len(values) for values in axes.values()):
        raise ValueError("sweep axes must be non-empty")
    if realizations < 1:
        raise ValueError("realizations must be at least 1")
    jobs = [(cfg, dict(zip(axes, cell)), r)
            for cell in itertools.product(*axes.values())
            for r in range(realizations)]
    results = _run_jobs(_sweep_cell, jobs, parallel)
    return [row for row, _ in results], [err for _, err in results if err is not None]


def write_sweep_csv(rows: Sequence[tuple], path, axes: Sequence[str],
                    provenance: dict | None = None) -> None:
    """Write sweep rows under the axis names; provenance goes to a ``.meta`` sidecar."""
    write_table(path, ",".join([*axes, "realization", "f_c", "f_spurious"]), rows, provenance)
