"""Fixed random reservoirs and their open-loop / closed-loop evolution.

The reservoir is a sparse random recurrent network with a dense input layer
and a bias vector, all drawn once from a seeded generator and frozen.  States
advance by

    r' = (1 - leakage) * r + leakage * tanh(w_r r + w_in u + bias)

either driven by an external signal (open loop) or by the trained readout's
own output (closed loop).  One kernel runs it for single runs and for batches
evolved in lock step as the columns of one state array (columns never
interact); a step allocates only its sparse product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as splinalg

from .errors import DimensionMismatchError, NonFiniteError, SingularSpectrumError
from .timeseries import TimeSeries

if TYPE_CHECKING:  # pragma: no cover
    from .training import Readout

#: Dense eigensolves are affordable (and used as a fallback) up to this size.
DENSE_EIG_MAX = 300

_ARPACK_TOL = 1e-10
_ARPACK_MAXITER = 10_000

#: Entries of the n_r x n_r mask and weight draws held at once while
#: building (8 MB of float64): one block up to n_r = 1024.
_BUILD_ENTRIES = 1 << 20


@dataclass(frozen=True)
class ReservoirSpec:
    """Construction parameters for a random reservoir.

    Attributes:
        n_r: Node count.
        mean_degree: Expected in-degree; each ordered node pair is connected
            independently with probability mean_degree / n_r.
        spectral_radius: Target largest absolute eigenvalue of the adjacency
            matrix after rescaling.
        input_strength: Input weights are uniform on [-input_strength, +].
        bias_strength: Biases are uniform on [-bias_strength, +].
        leakage: State mixing coefficient in [0, 1].
        n_in: Input dimension.
        seed: Seed for all construction randomness.
    """

    n_r: int
    mean_degree: float
    spectral_radius: float
    input_strength: float
    bias_strength: float
    leakage: float
    n_in: int
    seed: int

    def __post_init__(self):
        if self.n_r < 1:
            raise ValueError("n_r must be at least 1")
        if not 0.0 < self.mean_degree <= self.n_r:
            raise ValueError("mean_degree must be in (0, n_r]")
        if self.spectral_radius < 0.0:
            raise ValueError("spectral_radius must be non-negative")
        if self.input_strength < 0.0 or self.bias_strength < 0.0:
            raise ValueError("strength ranges must be non-negative")
        if not 0.0 <= self.leakage <= 1.0:
            raise ValueError("leakage must lie in [0, 1]")
        if self.n_in < 1:
            raise ValueError("n_in must be at least 1")


class Reservoir:
    """Frozen weight triple (w_r, w_in, bias) plus the leakage rate.

    Instances are immutable after construction and safe to share across
    parallel runs; every evolution owns its private state vector.
    """

    def __init__(self, w_r: sparse.csr_matrix, w_in: np.ndarray, bias: np.ndarray,
                 leakage: float, spec: ReservoirSpec | None = None):
        w_r = sparse.csr_matrix(w_r, dtype=float)
        w_in = np.array(w_in, dtype=float)
        bias = np.array(bias, dtype=float)
        n_r = w_r.shape[0]
        if w_r.shape != (n_r, n_r):
            raise DimensionMismatchError("w_r must be square")
        if w_in.shape[0] != n_r or w_in.ndim != 2:
            raise DimensionMismatchError("w_in must be (n_r, n_in)")
        if bias.shape != (n_r,):
            raise DimensionMismatchError("bias must be (n_r,)")
        w_r.data.flags.writeable = False
        w_in.flags.writeable = False
        bias.flags.writeable = False
        self.w_r = w_r
        self.w_in = w_in
        self.bias = bias
        self.leakage = float(leakage)
        self.spec = spec

    @property
    def n_r(self) -> int:
        return self.w_r.shape[0]

    @property
    def n_in(self) -> int:
        return self.w_in.shape[1]

    def zero_state(self) -> np.ndarray:
        return np.zeros(self.n_r)

    def __repr__(self) -> str:
        return f"<Reservoir n_r={self.n_r} n_in={self.n_in} leakage={self.leakage}>"


def estimate_spectral_radius(w: sparse.spmatrix, seed: int = 0) -> float:
    """Largest absolute eigenvalue of a sparse matrix.

    Uses an Arnoldi iteration (largest-magnitude mode, tolerance 1e-10,
    at most 10^4 iterations) with a seeded start vector, falling back to a
    dense eigensolve for small matrices or when the iteration fails.
    """
    n = w.shape[0]
    if n <= 2:
        return float(np.max(np.abs(np.linalg.eigvals(w.toarray()))))
    try:
        v0 = np.random.default_rng(seed).random(n)
        vals = splinalg.eigs(w, k=1, which="LM", v0=v0, tol=_ARPACK_TOL,
                             maxiter=_ARPACK_MAXITER, return_eigenvectors=False)
        return float(np.abs(vals[0]))
    except (splinalg.ArpackNoConvergence, splinalg.ArpackError):
        if n <= DENSE_EIG_MAX:
            return float(np.max(np.abs(np.linalg.eigvals(w.toarray()))))
        raise


def _draw_adjacency(rng: np.random.Generator, n: int, p: float) -> sparse.csr_matrix:
    """The n x n mask (``random() < p``) and then the n x n uniform weights.

    Both are drawn in blocks of whole rows, at most :data:`_BUILD_ENTRIES`
    entries (or one row): the generator emits them in sequence, so the
    stream, and the matrix, equal one n x n draw of each, at
    O(_BUILD_ENTRIES + n + nnz) memory.  Exact-zero weights are dropped, as
    ``csr_matrix`` does with a dense array.
    """
    rows = max(1, _BUILD_ENTRIES // n)
    sizes = [min(rows, n - lo) * n for lo in range(0, n, rows)]
    offsets = np.cumsum([0] + sizes[:-1])
    # row-major positions, first within each block, then in the whole matrix
    hits = [np.flatnonzero(rng.random(size) < p) for size in sizes]
    data = np.concatenate([rng.uniform(-1.0, 1.0, size=size)[h]
                           for size, h in zip(sizes, hits)])
    flat = np.concatenate([h + off for off, h in zip(offsets, hits)])
    keep = data != 0.0
    flat, data = flat[keep], data[keep]
    indptr = np.searchsorted(flat, np.arange(n + 1) * n)
    return sparse.csr_matrix((data, flat % n, indptr), shape=(n, n))


def build_reservoir(spec: ReservoirSpec) -> Reservoir:
    """Draw the random weight triple and rescale w_r to the target radius.

    Deterministic given ``spec.seed``.  Raises
    :class:`SingularSpectrumError` if the generated matrix cannot be
    rescaled because its spectral radius is numerically zero; the caller
    should retry with a different seed.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n_r
    w_r = _draw_adjacency(rng, n, spec.mean_degree / n)

    if spec.spectral_radius == 0.0:
        w_r = sparse.csr_matrix((n, n))
    else:
        radius = estimate_spectral_radius(w_r, seed=spec.seed)
        if radius < 1e-12:
            raise SingularSpectrumError(
                f"generated matrix has spectral radius {radius:.3e}; retry with a new seed"
            )
        w_r = w_r * (spec.spectral_radius / radius)

    w_in = rng.uniform(-spec.input_strength, spec.input_strength, size=(n, spec.n_in))
    bias = rng.uniform(-spec.bias_strength, spec.bias_strength, size=n)
    return Reservoir(w_r, w_in, bias, spec.leakage, spec=spec)


def _fold_input_and_bias(res: Reservoir) -> sparse.csr_matrix:
    """``[w_r | w_in | bias]`` of a one-input reservoir, as CSR with explicit zeros.

    Row i holds w_r's entries in their order, then ``w_in[i, 0]`` and
    ``bias[i]``.  The sparse product sums each row in that order, so its
    product with ``[r; u; 1]`` is ``(w_r r + w_in u) + bias`` bit for bit;
    kept zeros still turn an infinite input into NaN.
    """
    w, n = res.w_r, res.n_r
    indptr = w.indptr + 2 * np.arange(n + 1)
    own = np.arange(w.nnz) + 2 * np.repeat(np.arange(n), np.diff(w.indptr))
    data = np.empty(indptr[-1])
    indices = np.empty(indptr[-1], dtype=w.indices.dtype)
    data[own], indices[own] = w.data, w.indices
    data[indptr[1:] - 2], indices[indptr[1:] - 2] = res.w_in[:, 0], n
    data[indptr[1:] - 1], indices[indptr[1:] - 1] = res.bias, n + 1
    return sparse.csr_matrix((data, indices, indptr), shape=(n, n + 2))


def _evolve(res: Reservoir, r: np.ndarray, n_steps: int,
            inputs: np.ndarray | None = None, w_out: np.ndarray | None = None,
            keep_last: int | None = None) -> np.ndarray:
    """The reservoir update, run on one (n_r,) state or on (n_r, m) columns.

    Open loop: step k consumes ``inputs[k]`` and records the new state.
    Closed loop (``w_out`` given): step k records ``w_out @ r`` and, unless
    it is the last step, consumes it.  Returns the last ``keep_last`` records
    (default all) on a new first axis.  A non-finite value stays in its
    column, without a warning.  Single runs stay 1-d: scipy gives an (n_r, 1)
    column the same sparse product bits with about 3 us more overhead a step.

    A step allocates only its sparse product; everything else works in
    buffers allocated once per call.  ``x`` holds the state and, for one
    input, the input and a row of ones below it, which the folded weights
    of :func:`_fold_input_and_bias` turn into the input term and the bias
    inside the sparse product.  ``term`` holds the input term of a wider
    input and ``(1 - leakage) r``; ``u`` holds the closed-loop output.  At
    leakage 1 the blend is skipped, so a non-finite start entry reaches the
    next state only through ``w_r`` (the blend's ``0 * r`` made it NaN).
    The caller's ``r`` and ``inputs`` are never written.
    """
    if w_out is not None and n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    if w_out is not None and w_out.shape != (res.n_in, res.n_r):
        raise DimensionMismatchError(
            f"readout w_out has shape {w_out.shape}, not ({res.n_in}, {res.n_r})")
    kept = n_steps if keep_last is None else min(keep_last, n_steps)
    first_kept = n_steps - kept
    records = np.empty((kept, res.n_r if w_out is None else res.n_in) + r.shape[1:])
    n, lam, fold = res.n_r, res.leakage, res.n_in == 1
    x = np.empty((n + 2 * fold,) + r.shape[1:])
    x[:n] = r
    state = x[:n]
    if fold:
        w, u = _fold_input_and_bias(res), x[n:n + 1]
        x[n + 1] = 1.0
    else:
        w, bias = res.w_r, (res.bias if r.ndim == 1 else res.bias[:, None])
        if w_out is not None:
            u = np.empty((res.n_in,) + r.shape[1:])
    term = np.empty(r.shape)
    with np.errstate(invalid="ignore", over="ignore"):
        for k in range(n_steps):
            if w_out is None:
                if fold:
                    u[...] = inputs[k]
                else:
                    # not copied: matmul may round by its operands' layout
                    u = inputs[k]
            else:
                np.matmul(w_out, state, out=u)
                if k >= first_kept:
                    records[k - first_kept] = u
                if k + 1 == n_steps:
                    break
            pre = w @ x
            if not fold:
                pre += np.matmul(res.w_in, u, out=term)
                pre += bias
            if lam == 1.0:
                np.tanh(pre, out=state)
            else:
                np.tanh(pre, out=pre)
                pre *= lam
                np.add(pre, np.multiply(state, 1.0 - lam, out=term), out=state)
            if w_out is None and k >= first_kept:
                records[k - first_kept] = state
    return records


def _start_states(r: np.ndarray, shape: tuple, name: str) -> np.ndarray:
    """Check start states against ``shape``; batches come back as (n_r, m) columns."""
    r = np.asarray(r, dtype=float)
    if r.shape != shape:
        raise DimensionMismatchError(f"{name} must have shape {shape}, got {r.shape}")
    return r.T


def drive_open_loop(res: Reservoir, signal: TimeSeries | np.ndarray,
                    r0: np.ndarray) -> np.ndarray:
    """Evolve the driven reservoir and return all post-input states.

    ``r0`` is the state before any input is consumed; returned row k is the
    state after consuming sample k, so the output has one row per sample.
    """
    values = signal.values if isinstance(signal, TimeSeries) else np.asarray(signal, float)
    if values.ndim == 1:
        values = values[:, None]
    if values.shape[1] != res.n_in:
        raise DimensionMismatchError(
            f"signal width {values.shape[1]} does not match reservoir n_in {res.n_in}"
        )
    r0 = _start_states(r0, (res.n_r,), "r0")
    return _evolve(res, r0, values.shape[0], inputs=values)


def run_closed_loop(res: Reservoir, readout: "Readout", r_start: np.ndarray,
                    n_steps: int, dt: float = 1.0, t0: float = 0.0) -> TimeSeries:
    """Let the reservoir run on its own readout for ``n_steps`` outputs.

    The first emitted sample is ``w_out @ r_start`` (the one-step forecast
    from the synchronized state); each later sample requires one reservoir
    update that consumes the previous emission.  The loop runs in
    standardized coordinates internally and the returned series is mapped
    back through the readout's standardizer.

    Raises :class:`NonFiniteError` if a state or output leaves the finite
    range, which signals an unstable readout.
    """
    r_start = _start_states(r_start, (res.n_r,), "r_start")
    outputs = _evolve(res, r_start, n_steps, w_out=readout.w_out)
    # w_out is finite, so a non-finite state always shows in its output
    finite = np.isfinite(outputs).all(axis=1)
    if not finite.all():
        raise NonFiniteError(
            f"closed-loop output became non-finite at step {np.argmin(finite)}")
    return TimeSeries(readout.standardizer.invert_values(outputs), dt, t0)


def synchronize(res: Reservoir, readout: "Readout", test_signal: TimeSeries) -> np.ndarray:
    """Drive from the zero state through the standardized test signal.

    Returns the final reservoir state, ready for :func:`run_closed_loop`.
    """
    standardized = readout.standardizer.apply(test_signal)
    return drive_open_loop(res, standardized, res.zero_state())[-1]


def drive_open_loop_batch(res: Reservoir, inputs: np.ndarray) -> np.ndarray:
    """Drive many equal-length signals at once, each from the zero state.

    Args:
        inputs: Array of shape (n_runs, n_samples, n_in), n_samples >= 1.

    Returns:
        Final states, shape (n_runs, n_r).  Each run follows exactly the
        same recursion as :func:`drive_open_loop` from ``res.zero_state()``.
    """
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim != 3 or inputs.shape[1] < 1 or inputs.shape[2] != res.n_in:
        raise DimensionMismatchError("inputs must be (n_runs, n_samples >= 1, n_in)")
    n_runs, n_samples = inputs.shape[:2]
    return _evolve(res, np.zeros((res.n_r, n_runs)), n_samples,
                   inputs=inputs.transpose(1, 2, 0), keep_last=1)[0].T


def run_closed_loop_batch(res: Reservoir, readout: "Readout", r_start: np.ndarray,
                          n_steps: int, keep_last: int | None = None) -> np.ndarray:
    """Closed-loop evolution of many runs at once.

    Non-finite runs are not fatal here: a NaN stays confined to its own
    column and the caller can detect it in the returned tail.

    Args:
        r_start: Start states, shape (n_runs, n_r).
        n_steps: Number of emitted samples per run.
        keep_last: If given, only this many trailing samples are stored,
            which bounds memory for long horizons.

    Returns:
        Unstandardized outputs, shape (n_runs, kept, n_in) where kept is
        min(n_steps, keep_last or n_steps).
    """
    states = _start_states(r_start, np.shape(r_start)[:1] + (res.n_r,), "r_start")
    out = _evolve(res, states, n_steps, w_out=readout.w_out, keep_last=keep_last)
    return readout.standardizer.invert_values(out.transpose(2, 0, 1))

