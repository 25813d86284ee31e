"""Attractor classification, basin metrics, and KL divergence estimation.

Fixed-point systems use a tail test (or an energy-barrier test when the full
state and a potential barrier are available); chaotic systems compare the
empirical state distribution of a trajectory tail against reference
attractor distributions with a Kullback-Leibler divergence estimated from
Gaussian kernel mixtures.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import DegenerateCloudError, DimensionMismatchError
from .systems import CHAOTIC, FIXED_POINT, AttractorDescriptor, SystemDef
from .timeseries import TimeSeries

#: Sentinel labels returned by the classifiers alongside attractor indices.
SPURIOUS = "spurious"
UNRESOLVED = "unresolved"

#: Outcome categories of a prediction compared against the truth.
CORRECT = "correct"
WRONG = "wrong"
CATEGORIES = (CORRECT, WRONG, SPURIOUS, UNRESOLVED)

Label = Union[int, str]

#: One trajectory, or an (m, n_samples, d) block of m trajectories.
Trajectories = Union[TimeSeries, np.ndarray]


@dataclass(frozen=True)
class ConvergenceCriteria:
    """Thresholds of the convergence tests.

    Attributes:
        eps_c: Distance threshold for the fixed-point tail test.
        tail_len: Number of trailing samples that must all sit within eps_c.
        energy_barrier: Energy level separating the wells; enables the
            energy test for fully observed states when the system defines
            an energy function.
        kl_threshold: Divergence threshold below which a trajectory tail is
            assigned to a chaotic attractor.
        kl_tail: Number of trailing samples forming the empirical tail
            distribution.
    """

    eps_c: float
    tail_len: int = 25
    energy_barrier: float | None = None
    kl_threshold: float | None = None
    kl_tail: int = 500

    def __post_init__(self):
        if self.eps_c <= 0.0:
            raise ValueError("eps_c must be positive")
        if self.tail_len < 1:
            raise ValueError("tail_len must be at least 1")
        if self.kl_tail < 2:
            raise ValueError("kl_tail must be at least 2")


@dataclass(frozen=True)
class BasinOutcome:
    """Category of one prediction plus the predicted attractor, if any."""

    category: str
    attractor: int | None = None

    def __post_init__(self):
        if self.category not in CATEGORIES:
            raise ValueError(f"unknown outcome category {self.category!r}")
        if self.category in (CORRECT, WRONG) and self.attractor is None:
            raise ValueError(f"{self.category} outcomes must name an attractor")


def make_outcome(predicted: Label, truth: int) -> BasinOutcome:
    """Combine a predicted label and a true basin label into an outcome."""
    if predicted == SPURIOUS:
        return BasinOutcome(SPURIOUS)
    if predicted == UNRESOLVED:
        return BasinOutcome(UNRESOLVED)
    if predicted == truth:
        return BasinOutcome(CORRECT, attractor=int(predicted))
    return BasinOutcome(WRONG, attractor=int(predicted))


def _tail_block(traj: Trajectories, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Last ``n`` samples of each trajectory, as one private C-ordered copy.

    ``traj`` is a :class:`TimeSeries` (a batch of one) or an (m, samples, d)
    array of any memory layout.  Returns the (m, n, d) tails and which rows
    are finite; non-finite rows are zeroed in the copy, so the vector tests
    raise no floating-point warnings, and the callers report them
    ``UNRESOLVED``.  The copy is C-ordered because numpy sums a contiguous
    axis pairwise: tail means of an F-ordered block would differ in the last
    bit from those of a single C-ordered trajectory.
    """
    x = traj.values[None] if isinstance(traj, TimeSeries) else np.asarray(traj, dtype=float)
    if x.ndim != 3:
        raise DimensionMismatchError(
            f"expected a TimeSeries or an (m, n_samples, d) array, got shape {x.shape}")
    if x.shape[1] < n:
        raise ValueError(f"need at least {n} samples to classify")
    tails = np.array(x[:, -n:], order="C")
    finite = np.isfinite(tails).all(axis=(1, 2))
    tails[~finite] = 0.0
    return tails, finite


def classify_fixed_point(traj: Trajectories, sys: SystemDef, crit: ConvergenceCriteria,
                         full_state: bool = False,
                         components: Sequence[int] | None = None) -> Label | list[Label]:
    """Decide which fixed-point attractor (if any) each trajectory reached.

    The candidate is the attractor nearest the final point.  With the full
    state, a defined energy function, and a barrier level, convergence means
    the final energy is below the barrier; otherwise all of the last
    ``tail_len`` samples must lie within ``eps_c`` of the candidate.  A tail
    that has settled (every sample within eps_c of the tail mean) farther
    than eps_c from every true attractor is reported as ``SPURIOUS``;
    anything else, a non-finite tail included, is ``UNRESOLVED``.

    A :class:`TimeSeries` gets one label; an (m, n_samples, d) array gets a
    list of m labels, each equal to that of the row as a TimeSeries.

    Args:
        components: State components carried by ``traj`` when it is a
            partial observation; defaults to the leading components.
    """
    tails, finite = _tail_block(traj, crit.tail_len)
    width = tails.shape[2]
    if components is None:
        components = tuple(range(width))
    if len(components) != width:
        raise DimensionMismatchError("components must match trajectory width")
    locations = sys.attractor_locations(components)

    ends = tails[:, -1]
    candidate = np.argmin(np.linalg.norm(locations - ends[:, None], axis=2), axis=1)
    use_energy = (full_state and sys.energy is not None
                  and crit.energy_barrier is not None and width == sys.dim)
    if use_energy:
        converged = sys.energy(ends) < crit.energy_barrier
    else:
        gap = tails - locations[candidate][:, None]
        converged = np.all(np.linalg.norm(gap, axis=2) <= crit.eps_c, axis=1)
    center = tails.mean(axis=1)
    settled = np.all(np.linalg.norm(tails - center[:, None], axis=2) <= crit.eps_c, axis=1)
    far_from_all = np.all(np.linalg.norm(locations - center[:, None], axis=2) > crit.eps_c,
                          axis=1)
    converged &= finite
    spurious = settled & far_from_all & finite

    labels = [int(c) if conv else SPURIOUS if spur else UNRESOLVED
              for c, conv, spur in zip(candidate, converged, spurious)]
    return labels[0] if isinstance(traj, TimeSeries) else labels


def classify_chaotic(traj: Trajectories, refs: Sequence[AttractorDescriptor],
                     crit: ConvergenceCriteria) -> Label | list[Label]:
    """Assign each trajectory tail to the nearest reference attractor by divergence.

    Computes the divergence of each reference distribution relative to the
    distribution of the last ``kl_tail`` samples and assigns the minimizer
    when it falls below ``kl_threshold``; a non-finite tail is
    ``UNRESOLVED``.  A reference spread of zero along some component is
    floored at 1e-10.  Like :func:`classify_fixed_point`, a
    :class:`TimeSeries` gets one label and an (m, n_samples, d) array a
    list of m labels.
    """
    if crit.kl_threshold is None:
        raise ValueError("criteria carry no kl_threshold")
    tails, finite = _tail_block(traj, crit.kl_tail)
    if any(ref.kind != CHAOTIC for ref in refs):
        raise ValueError("references must be chaotic attractors")
    labels: list[Label] = []
    for tail, ok in zip(tails, finite):
        if not ok:
            labels.append(UNRESOLVED)
            continue
        divergences = [kl_divergence(ref.reference, tail, scale_floor=1e-10)
                       for ref in refs]
        best = int(np.argmin(divergences))
        labels.append(best if divergences[best] < crit.kl_threshold else UNRESOLVED)
    return labels[0] if isinstance(traj, TimeSeries) else labels


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """``scipy.special.logsumexp(a, axis=1)`` of a real 2-d array, bit for bit.

    Runs the steps of scipy 1.17's ``_logsumexp`` in its order, but
    overwrites ``a`` instead of copying it: the row maxima are taken out of
    the sum and counted, the rest is shifted, exponentiated and summed.  A
    row whose maximum is finite has a finite result, so scipy's direct
    ``log(sum(exp(a)))`` replaces exactly the rows whose maximum is
    infinite or NaN; those are computed before ``a`` is overwritten.
    """
    a_max = np.max(a, axis=1, keepdims=True)
    mask = a == a_max
    m = np.sum(mask, axis=1, keepdims=True, dtype=a.dtype)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        direct = ~np.isfinite(a_max[:, 0])
        fallback = np.log(np.sum(np.exp(a[direct]), axis=1))
        np.copyto(a, -np.inf, where=mask)
        np.subtract(a, a_max, out=a)
        np.exp(a, out=a)
        s = np.sum(a, axis=1, keepdims=True)
        np.divide(s, m, out=s, where=s != 0)
        # No-ops for unweighted input, where s >= 0 and m >= 0; kept as scipy has them.
        sgn = np.sign(s + 1) * np.sign(m)
        s = np.where(s < -1, -s - 2, s)
        out = np.log1p(s) + np.log(np.abs(m)) + a_max
    out[sgn < 0] = np.nan
    out = out[:, 0]
    out[direct] = fallback
    return out


def _log_mixture_density(queries: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Exact log density of an equal-weight, unit-bandwidth isotropic Gaussian mixture.

    Evaluated through logsumexp so that far-away queries yield very negative
    finite values rather than underflowing to zero.  The log kernel is built
    in one buffer, in the order of ``-(|q|^2 - 2 q.c + |c|^2) / 2`` with the
    squared distance clamped at zero.
    """
    d = centers.shape[1]
    log_kernel = (2.0 * queries) @ centers.T
    np.subtract(np.sum(queries**2, axis=1)[:, None], log_kernel, out=log_kernel)
    np.add(log_kernel, np.sum(centers**2, axis=1)[None, :], out=log_kernel)
    np.maximum(log_kernel, 0.0, out=log_kernel)
    np.negative(log_kernel, out=log_kernel)
    np.divide(log_kernel, 2.0, out=log_kernel)
    log_norm = np.log(centers.shape[0]) + 0.5 * d * np.log(2.0 * np.pi)
    return _logsumexp_rows(log_kernel) - log_norm


#: Most queries per block when the reference mixture density is evaluated.
_DENSITY_BLOCK_ROWS = 128

#: Last-resort floor for a mixture density that is genuinely zero.
_DENSITY_FLOOR = 1e-10


def _log_mixture_density_blocked(queries: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """:func:`_log_mixture_density` over row blocks of at most 128 queries.

    Bounds the temporaries by the block instead of the whole query set.
    ``np.array_split`` into equal blocks never leaves a lone row, which the
    BLAS would route through a matrix-vector kernel whose rounding differs;
    blocks of many rows reproduce the single-shot values exactly.
    """
    n_blocks = max(1, -(-queries.shape[0] // _DENSITY_BLOCK_ROWS))
    return np.concatenate([_log_mixture_density(block, centers)
                           for block in np.array_split(queries, n_blocks)])


@functools.lru_cache(maxsize=8)
def _reference_side(ref_bytes: bytes, shape: tuple[int, ...], n_samples: int,
                    scale_floor: float) -> tuple[np.ndarray, ...]:
    """Standardize the reference set, draw from its mixture, score the draws.

    ``ref_bytes`` and ``shape`` carry the C-ordered float reference set, so
    the result is memoized on its contents.  Returns ``(center, spread,
    draws, log_p_ref)``: everything :func:`kl_divergence` needs from the
    reference set alone.  The draws come from ``default_rng(0)``; the arrays
    are read-only so that the cached result can be shared between calls.
    """
    ref = np.frombuffer(ref_bytes, dtype=float).reshape(shape)
    center = ref.mean(axis=0)
    spread = ref.std(axis=0)
    if np.any(spread == 0.0):
        if scale_floor > 0.0:
            spread = np.maximum(spread, scale_floor)
        else:
            raise DegenerateCloudError(
                "reference set is degenerate along some component")
    ref = (ref - center) / spread

    rng = np.random.default_rng(0)
    picks = rng.integers(0, ref.shape[0], size=n_samples)
    draws = ref[picks] + rng.standard_normal((n_samples, ref.shape[1]))
    log_p_ref = _log_mixture_density_blocked(draws, ref)
    log_p_ref[~np.isfinite(log_p_ref)] = np.log(_DENSITY_FLOOR)
    side = (center, spread, draws, log_p_ref)
    for a in side:
        a.flags.writeable = False
    return side


def kl_divergence(ref_samples: np.ndarray, test_samples: np.ndarray,
                  n_samples: int = 1000, scale_floor: float = 0.0) -> float:
    """Monte Carlo divergence of the test distribution relative to the reference.

    Both point sets are mapped into the coordinates in which the reference
    set has zero mean and unit variance per component; each set is then
    modeled as an equal-weight Gaussian kernel mixture with unit isotropic
    bandwidth.  Smoothing at the scale of the reference spread makes the
    estimate insensitive to sample count, so two windows of the same
    attractor score near zero while separated sets score roughly half their
    squared standardized distance.  ``n_samples`` draws from the reference
    mixture estimate the mean log density ratio; densities are evaluated
    exactly in log space, with 1e-10 as a last-resort floor for genuinely
    zero densities.

    The draws come from ``default_rng(0)``, so the reference side -- its
    standardization, the draws and their log density under the reference
    mixture -- depends only on the reference set, ``n_samples`` and
    ``scale_floor``.  It is built once per process per (reference contents,
    ``n_samples``, ``scale_floor``) and reused.

    Raises :class:`DegenerateCloudError` when the reference set has a
    zero-variance component (all points identical there) and no
    ``scale_floor`` is given to substitute for it.
    """
    ref = np.ascontiguousarray(np.atleast_2d(np.asarray(ref_samples, dtype=float)))
    test = np.atleast_2d(np.asarray(test_samples, dtype=float))
    if ref.shape[0] < 2 or test.shape[0] < 2:
        raise ValueError("both sample sets need at least 2 points")
    if ref.shape[1] != test.shape[1]:
        raise DimensionMismatchError("sample sets must share a dimension")
    center, spread, draws, log_p_ref = _reference_side(ref.tobytes(), ref.shape,
                                                       n_samples, scale_floor)

    test = (test - center) / spread
    log_p_test = _log_mixture_density(draws, test)
    log_p_test[~np.isfinite(log_p_test)] = np.log(_DENSITY_FLOOR)
    return float(np.mean(log_p_ref - log_p_test))


@dataclass(frozen=True)
class PerBasinMetrics:
    basin: int
    n_true: int
    f_c: float
    false_negative_rate: float
    false_positive_rate: float


@dataclass(frozen=True)
class BasinMetrics:
    """Aggregate and per-basin scores of a batch of predictions.

    The four fractions partition the predictions, so they sum to one.
    """

    n: int
    f_c: float
    f_wrong: float
    f_spurious: float
    f_unresolved: float
    per_basin: tuple[PerBasinMetrics, ...]

    def as_flat_dict(self) -> dict[str, float]:
        flat = {
            "n": self.n,
            "f_c": self.f_c,
            "f_wrong": self.f_wrong,
            "f_spurious": self.f_spurious,
            "f_unresolved": self.f_unresolved,
        }
        for pb in self.per_basin:
            flat[f"basin{pb.basin}_n_true"] = pb.n_true
            flat[f"basin{pb.basin}_f_c"] = pb.f_c
            flat[f"basin{pb.basin}_fnr"] = pb.false_negative_rate
            flat[f"basin{pb.basin}_fpr"] = pb.false_positive_rate
        return flat


def score(outcomes: Sequence[BasinOutcome], truth: Sequence[int]) -> BasinMetrics:
    """Fraction correct, spurious rate, and per-basin error rates.

    Per-basin fraction correct conditions on the true basin; the false
    positive rate for basin b counts predictions of b whose truth differs,
    over all cells whose truth differs.
    """
    if len(outcomes) != len(truth):
        raise DimensionMismatchError("outcomes and truth must align")
    n = len(outcomes)
    truth = np.asarray(truth, dtype=int)
    cats = np.array([o.category for o in outcomes])
    predicted = np.array([-1 if o.attractor is None else o.attractor for o in outcomes])

    f_c = float(np.mean(cats == CORRECT)) if n else 0.0
    f_wrong = float(np.mean(cats == WRONG)) if n else 0.0
    f_spurious = float(np.mean(cats == SPURIOUS)) if n else 0.0
    f_unresolved = float(np.mean(cats == UNRESOLVED)) if n else 0.0

    per_basin = []
    for basin in sorted(b for b in np.unique(truth) if b >= 0):
        in_basin = truth == basin
        n_true = int(np.sum(in_basin))
        fc_b = float(np.mean(cats[in_basin] == CORRECT))
        others = ~in_basin
        fp = float(np.mean(predicted[others] == basin)) if np.any(others) else 0.0
        per_basin.append(PerBasinMetrics(basin=int(basin), n_true=n_true, f_c=fc_b,
                                         false_negative_rate=1.0 - fc_b,
                                         false_positive_rate=fp))
    return BasinMetrics(n=n, f_c=f_c, f_wrong=f_wrong, f_spurious=f_spurious,
                        f_unresolved=f_unresolved, per_basin=tuple(per_basin))


def nearest_attractor(ends: np.ndarray, sys: SystemDef,
                      components: Sequence[int]) -> np.ndarray:
    """Index of the fixed point nearest each row of ``ends``.

    ``ends`` is (m, len(components)) states; distances are squared
    Euclidean in those components of the attractor locations.  Ties break
    to the lowest attractor index.
    """
    if any(a.kind != FIXED_POINT for a in sys.attractors):
        raise ValueError("baseline requires fixed-point attractors")
    diff = ends[:, None, :] - sys.attractor_locations(components)[None, :, :]
    return np.argmin(np.einsum("ijk,ijk->ij", diff, diff), axis=1)


def nearest_magnet_baseline(test_signals: Sequence[TimeSeries],
                            sys: SystemDef) -> np.ndarray:
    """Guess the attractor nearest the state at the end of each test signal.

    Distances are taken in the observed components (the leading state
    components carried by the signals), by :func:`nearest_attractor`.
    """
    ends = np.array([signal.values[-1] for signal in test_signals])
    return nearest_attractor(ends, sys, range(test_signals[0].n_components))
