import hashlib
import re

import numpy as np
import pytest
from scipy import sparse

import rcbasin.reservoir as reservoir_mod

from rcbasin.errors import DimensionMismatchError, SchemaMismatchError, SingularSpectrumError
from rcbasin.reservoir import (
    Reservoir,
    ReservoirSpec,
    _draw_adjacency,
    _evolve,
    build_reservoir,
    drive_open_loop,
    drive_open_loop_batch,
    estimate_spectral_radius,
    run_closed_loop_batch,
)
from rcbasin.timeseries import Standardizer, TimeSeries
from rcbasin.training import Readout, TrainConfig, load_model, save_model, train

#: Digest of the model bundle written for :func:`archived_reservoir`, pinned
#: before the reservoir and model codecs were merged.
MODEL_SHA256 = "5d92aabc058eab0c00194e7f73326354ce19b2f59eed45e20ee2605046bb4074"


def small_spec(**kw):
    base = dict(n_r=50, mean_degree=5.0, spectral_radius=0.4, input_strength=1.0,
                bias_strength=0.5, leakage=1.0, n_in=1, seed=0)
    base.update(kw)
    return ReservoirSpec(**base)


def duffing_table_spec(seed=0):
    return ReservoirSpec(n_r=200, mean_degree=10.0, spectral_radius=0.4,
                         input_strength=1.0, bias_strength=0.5, leakage=1.0,
                         n_in=1, seed=seed)


def hand_reservoir(w_r, w_in, bias, leakage=1.0):
    return Reservoir(sparse.csr_matrix(np.asarray(w_r, dtype=float)),
                     np.asarray(w_in, dtype=float), np.asarray(bias, dtype=float),
                     leakage)


def identity_readout(w_out, n_in):
    return Readout(w_out=w_out, standardizer=Standardizer.identity(n_in), n_fit=1)


class TestSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            small_spec(n_r=0)
        with pytest.raises(ValueError):
            small_spec(mean_degree=0.0)
        with pytest.raises(ValueError):
            small_spec(mean_degree=60.0)
        with pytest.raises(ValueError):
            small_spec(leakage=1.5)
        with pytest.raises(ValueError):
            small_spec(spectral_radius=-0.1)


class TestBuild:
    def test_diagonal_rescale(self):
        # radius of diag(2, 1) is 2; scaling to 0.4 halves-and-scales entries
        w = sparse.csr_matrix(np.diag([2.0, 1.0]))
        radius = estimate_spectral_radius(w)
        assert radius == pytest.approx(2.0, abs=1e-10)
        scaled = (w * (0.4 / radius)).toarray()
        assert np.allclose(scaled, np.diag([0.4, 0.2]), atol=1e-12)

    def test_edge_count_binomial(self):
        res = build_reservoir(small_spec(n_r=200, mean_degree=10.0, seed=3))
        n_pairs, p = 200 * 200, 10.0 / 200
        mean, std = n_pairs * p, np.sqrt(n_pairs * p * (1 - p))
        assert abs(res.w_r.nnz - mean) <= 3 * std

    def test_zero_radius_allowed(self):
        res = build_reservoir(small_spec(spectral_radius=0.0))
        assert res.w_r.nnz == 0

    def test_weight_ranges(self):
        res = build_reservoir(small_spec(input_strength=0.25, bias_strength=0.5))
        assert np.abs(res.w_in).max() <= 0.25
        assert np.abs(res.bias).max() <= 0.5

    def test_deterministic(self):
        a = build_reservoir(small_spec(seed=9))
        b = build_reservoir(small_spec(seed=9))
        assert np.array_equal(a.w_r.toarray(), b.w_r.toarray())
        assert np.array_equal(a.w_in, b.w_in)
        assert np.array_equal(a.bias, b.bias)

    @staticmethod
    def arpack_fails(*args, **kwargs):
        raise sparse.linalg.ArpackNoConvergence("no convergence", np.empty(0), np.empty(0))

    def test_radius_falls_back_to_dense(self, monkeypatch):
        w = sparse.csr_matrix(np.diag([0.5, -3.0, 1.0, 2.0]))
        monkeypatch.setattr(reservoir_mod.splinalg, "eigs", self.arpack_fails)
        assert estimate_spectral_radius(w) == 3.0
        monkeypatch.setattr(reservoir_mod, "DENSE_EIG_MAX", 3)
        with pytest.raises(sparse.linalg.ArpackNoConvergence):
            estimate_spectral_radius(w)

    def test_zero_spectrum_rejected(self):
        with pytest.raises(SingularSpectrumError, match=r"spectral radius 0\.000e\+00"):
            build_reservoir(small_spec(n_r=3, mean_degree=1e-6))

    @pytest.mark.parametrize("seed", range(5))
    def test_radius_vs_dense_eigensolve(self, seed):
        res = build_reservoir(small_spec(n_r=200, mean_degree=10.0, seed=seed))
        dense_radius = np.max(np.abs(np.linalg.eigvals(res.w_r.toarray())))
        assert abs(dense_radius - 0.4) <= 1e-6 * 0.4

    def test_immutable(self):
        res = build_reservoir(small_spec())
        with pytest.raises(ValueError):
            res.w_in[0, 0] = 1.0
        with pytest.raises(ValueError):
            res.w_r.data[0] = 1.0

    def test_caller_matrix_not_shared(self):
        w = sparse.random(20, 20, density=0.2, format="csr", random_state=0)
        res = Reservoir(w, np.ones((20, 1)), np.zeros(20), 1.0)
        before = res.w_r.toarray()
        w.data[:] = 7.0
        assert np.array_equal(res.w_r.toarray(), before)


class TestDriveOpenLoop:
    def test_zero_everything_stays_zero(self):
        res = hand_reservoir(np.zeros((3, 3)), np.ones((3, 1)), np.zeros(3))
        states = drive_open_loop(res, np.zeros((10, 1)), np.zeros(3))
        assert np.array_equal(states, np.zeros((10, 3)))

    def test_zero_leakage_freezes_state(self):
        res = hand_reservoir(np.eye(2), np.ones((2, 1)), np.ones(2), leakage=0.0)
        r0 = np.array([0.3, -0.7])
        states = drive_open_loop(res, np.ones((5, 1)), r0)
        assert np.array_equal(states, np.tile(r0, (5, 1)))

    def test_single_node_one_step(self):
        res = hand_reservoir([[0.5]], [[1.0]], [0.0])
        states = drive_open_loop(res, np.array([[1.0]]), np.zeros(1))
        assert states[0, 0] == pytest.approx(np.tanh(1.0), abs=1e-12)

    def test_dimension_mismatch(self):
        res = hand_reservoir(np.zeros((3, 3)), np.ones((3, 1)), np.zeros(3))
        # a signal is an (n_samples, n_in) array, never 1-d
        for signal in (np.zeros((4, 2)), np.zeros(4)):
            with pytest.raises(DimensionMismatchError):
                drive_open_loop(res, signal, np.zeros(3))
        with pytest.raises(DimensionMismatchError):
            drive_open_loop(res, np.zeros((4, 1)), np.zeros(2))

    def test_states_bounded_by_tanh(self):
        res = build_reservoir(small_spec(input_strength=5.0))
        signal = 50 * np.random.default_rng(0).standard_normal((200, 1))
        states = drive_open_loop(res, signal, np.zeros(res.n_r))
        assert np.abs(states).max() <= 1.0

    def test_batch_matches_loop(self):
        res = build_reservoir(small_spec(n_in=2))
        rng = np.random.default_rng(4)
        inputs = rng.standard_normal((3, 40, 2))
        finals = drive_open_loop_batch(res, inputs)
        for k in range(3):
            states = drive_open_loop(res, inputs[k], np.zeros(res.n_r))
            assert np.allclose(finals[k], states[-1], atol=1e-12)

    @pytest.mark.parametrize("leakage", [1.0, 0.3])
    def test_stacked_signals_equal_single_calls(self, leakage):
        # one input: k signals driven as columns give each signal's own bytes
        res = build_reservoir(small_spec(leakage=leakage))
        rng = np.random.default_rng(8)
        signals = rng.standard_normal((5, 19, 1))
        r0 = rng.uniform(-1, 1, (5, res.n_r))
        stacked = drive_open_loop(res, signals.reshape(-1, 1), r0)
        singles = [drive_open_loop(res, s, r) for s, r in zip(signals, r0)]
        assert_same_bytes(stacked, np.concatenate(singles))

    def test_stacked_rows_must_split(self):
        res = build_reservoir(small_spec())
        for rows, runs in ((10, 3), (10, 0)):
            with pytest.raises(DimensionMismatchError):
                drive_open_loop(res, np.zeros((rows, 1)), np.zeros((runs, res.n_r)))

    def test_echo_state_contraction(self):
        # two random initial states forget each other under the same drive
        res = build_reservoir(duffing_table_spec())
        rng = np.random.default_rng(1)
        signal = rng.uniform(-1, 1, size=(500, 1))
        a = drive_open_loop(res, signal, rng.uniform(-1, 1, res.n_r))
        b = drive_open_loop(res, signal, rng.uniform(-1, 1, res.n_r))
        assert np.linalg.norm(a[-1] - b[-1]) < 1e-6


class TestClosedLoop:
    def test_zero_readout_emits_unstandardized_zero(self):
        res = build_reservoir(small_spec(n_in=2))
        st = Standardizer(np.array([1.0, -2.0]), np.array([3.0, 4.0]))
        ro = Readout(w_out=np.zeros((2, res.n_r)), standardizer=st, n_fit=1)
        out = run_closed_loop_batch(res, ro, np.zeros((1, res.n_r)), 5)[0]
        assert np.allclose(out, st.invert_values(np.zeros((5, 2))), atol=1e-15)

    def test_one_step_matches_open_loop_on_emitted_output(self):
        res = build_reservoir(small_spec())
        rng = np.random.default_rng(2)
        w_out = rng.standard_normal((1, res.n_r)) * 0.1
        ro = identity_readout(w_out, 1)
        r0 = rng.uniform(-0.5, 0.5, res.n_r)
        out = run_closed_loop_batch(res, ro, r0[None], 2)[0]
        states = drive_open_loop(res, out[:1], r0)
        assert out[1] == pytest.approx(w_out @ states[-1], abs=1e-12)

    def test_trained_on_constant_holds_constant(self):
        # closed loop from a synchronized state stays at the training constant
        res = build_reservoir(small_spec(n_r=100, n_in=1, seed=5))
        c = 1.7
        signal = TimeSeries(np.full((300, 1), c), 0.01)
        cfg = TrainConfig(n_trans=5, alpha=1e-10, eta=1e-4, seed=8)
        ro = train(res, [signal], cfg, standardizer=Standardizer.identity(1))
        prefix = ro.standardizer.apply_values(signal.values[:20])
        out = run_closed_loop_batch(res, ro, drive_open_loop_batch(res, prefix[None]), 2000)
        assert np.abs(out - c).max() < 1e-3

    def test_nonfinite_detected(self):
        # not raised: the overflow shows in the returned output
        res = hand_reservoir([[0.0]], [[1.0]], [0.0])
        huge = Readout(w_out=np.array([[1e300]]),
                       standardizer=Standardizer.identity(1), n_fit=1)
        out = run_closed_loop_batch(res, huge, np.full((1, 1), 1e308), 10)
        assert not np.isfinite(out[0, 0, 0])

    def test_batch_nan_isolated_per_run(self):
        res = build_reservoir(small_spec(n_r=20))
        w = np.zeros((1, 20))
        w[0, 0] = 1.0
        ro = identity_readout(w, 1)
        starts = np.zeros((2, 20))
        starts[1] = np.nan
        out = run_closed_loop_batch(res, ro, starts, 50)
        assert np.all(np.isfinite(out[0]))
        assert np.all(np.isnan(out[1, :, 0]))


class TestSynchronize:
    """Synchronization is the open-loop batch drive from the zero state."""

    def test_zero_leakage_returns_zero_state(self):
        res = hand_reservoir(np.eye(3), np.ones((3, 1)), np.ones(3), leakage=0.0)
        assert np.array_equal(drive_open_loop_batch(res, np.array([[[2.0]]])),
                              np.zeros((1, 3)))

    def test_deterministic(self):
        res = build_reservoir(small_spec())
        sig = np.sin(np.arange(100.0))[None, :, None]
        assert np.array_equal(drive_open_loop_batch(res, sig), drive_open_loop_batch(res, sig))

    def test_memory_distinguishes_offset_windows(self):
        res = build_reservoir(small_spec())
        t = np.arange(400.0)
        tail = np.sin(0.1 * t)[:, None]
        a, b = drive_open_loop_batch(res, np.stack([tail[200:300], tail[250:350]]))
        assert np.linalg.norm(a - b) > 1e-8


class TestSerialization:
    """A reservoir round-trips through the model bundle."""

    def test_round_trip_bit_identical_dynamics(self, tmp_path):
        res = build_reservoir(small_spec(n_in=2, seed=13))
        rng = np.random.default_rng(0)
        ro = identity_readout(rng.standard_normal((2, res.n_r)) * 0.1, 2)
        path = tmp_path / "model.npz"
        save_model(path, res, ro)
        back, ro_back = load_model(path)
        signal = rng.standard_normal((50, 2))
        a = drive_open_loop(res, signal, np.zeros(res.n_r))
        b = drive_open_loop(back, signal, np.zeros(back.n_r))
        assert np.array_equal(a, b)
        r0 = a[-1:]
        assert np.array_equal(run_closed_loop_batch(res, ro, r0, 20),
                              run_closed_loop_batch(back, ro_back, r0, 20))

    def test_repeated_save_byte_identical(self, tmp_path):
        res = build_reservoir(small_spec(seed=21))
        ro = identity_readout(np.full((1, res.n_r), 0.01), 1)
        p1, p2 = tmp_path / "a.npz", tmp_path / "b.npz"
        save_model(p1, res, ro)
        save_model(p2, res, ro)
        assert p1.read_bytes() == p2.read_bytes()


def kernel_case(n_in, leakage):
    res = build_reservoir(small_spec(n_r=80, n_in=n_in, leakage=leakage, seed=n_in))
    rng = np.random.default_rng(31 + n_in)
    ro = Readout(w_out=rng.standard_normal((n_in, res.n_r)) * 0.05,
                 standardizer=Standardizer(rng.standard_normal(n_in), 1.0 + rng.random(n_in)),
                 n_fit=1)
    return res, ro, rng.standard_normal((40, n_in)), rng.uniform(-0.5, 0.5, res.n_r)


class TestSingleRunIsBatchOfOne:
    @pytest.mark.parametrize("n_in", [1, 2])
    @pytest.mark.parametrize("leakage", [1.0, 0.3])
    def test_open_loop(self, n_in, leakage):
        res, _, signal, _ = kernel_case(n_in, leakage)
        single = parent_evolve(res, np.zeros(res.n_r), len(signal), inputs=signal)
        batch = drive_open_loop_batch(res, signal[None])
        assert batch.shape == (1, res.n_r)
        assert np.array_equal(batch[0], single[-1])

    @pytest.mark.parametrize("n_in", [1, 2])
    @pytest.mark.parametrize("leakage", [1.0, 0.3])
    def test_closed_loop(self, n_in, leakage):
        # the reference's single run against the batch of one that predict runs
        res, ro, _, r0 = kernel_case(n_in, leakage)
        single = ro.standardizer.invert_values(parent_evolve(res, r0, 60, w_out=ro.w_out))
        batch = run_closed_loop_batch(res, ro, r0[None], 60)
        tail = run_closed_loop_batch(res, ro, r0[None], 60, keep_last=7)
        assert batch.shape == (1, 60, n_in) and tail.shape == (1, 7, n_in)
        assert np.array_equal(batch[0], single)
        assert np.array_equal(tail[0], single[-7:])

    @pytest.mark.parametrize("n_in", [1, 2, 3])
    @pytest.mark.parametrize("leakage", [1.0, 0.3])
    def test_drive_open_loop_is_one_column(self, n_in, leakage):
        # the public 1-d r0 runs as one column, with the 1-d reference's bytes
        res, _, signal, r0 = kernel_case(n_in, leakage)
        assert_same_bytes(drive_open_loop(res, signal, r0),
                          parent_evolve(res, r0, len(signal), inputs=signal))


class TestBatchValidation:
    def setup_method(self):
        self.res = build_reservoir(small_spec(n_r=20))
        self.ro = identity_readout(np.zeros((1, 20)), 1)

    @pytest.mark.parametrize("shape", [(3, 5), (3, 0, 1), (3, 5, 2), (1, 3, 5, 1)])
    def test_open_loop_input_shape(self, shape):
        with pytest.raises(DimensionMismatchError):
            drive_open_loop_batch(self.res, np.zeros(shape))

    @pytest.mark.parametrize("shape", [(20,), (3, 19), (3, 20, 1), ()])
    def test_closed_loop_start_shape(self, shape):
        with pytest.raises(DimensionMismatchError):
            run_closed_loop_batch(self.res, self.ro, np.zeros(shape), 4)

    @pytest.mark.parametrize("w_shape", [(2, 20), (1, 21)])
    def test_readout_shape(self, w_shape):
        # a 2-output readout on a 1-input reservoir, and a readout for another n_r
        ro = Readout(w_out=np.zeros(w_shape), standardizer=Standardizer.identity(w_shape[0]),
                     n_fit=1)
        with pytest.raises(DimensionMismatchError):
            run_closed_loop_batch(self.res, ro, np.zeros((3, 20)), 4)


class TestClosedLoopDivergence:
    def setup_method(self):
        # frozen-input leaky pair ramping toward tanh(5): the output 1e308 * (r_a + r_b)
        # stays finite for steps 0-3 and overflows at step 4
        self.res = hand_reservoir(np.zeros((2, 2)), np.zeros((2, 1)), [5.0, 5.0],
                                  leakage=0.5)
        self.ro = identity_readout(np.full((1, 2), 1e308), 1)

    def test_batch_keeps_divergence_in_its_column(self):
        out = run_closed_loop_batch(self.res, self.ro, np.zeros((1, 2)), 10)
        assert np.all(np.isfinite(out[0, :4])) and not np.any(np.isfinite(out[0, 4:]))


def archived_reservoir():
    """Fixed weights with a spec attached, so the bytes do not hinge on an eigensolve."""
    spec = small_spec(n_r=6, n_in=2, leakage=0.7, seed=11)
    grid = np.linspace(-1.0, 1.0, 36).reshape(6, 6)
    w_r = np.where(np.arange(36).reshape(6, 6) % 5 == 0, grid, 0.0)
    return Reservoir(sparse.csr_matrix(w_r), np.linspace(-1.0, 1.0, 12).reshape(6, 2),
                     np.linspace(-0.5, 0.5, 6), spec.leakage, spec=spec)


class TestArchiveBytes:
    """Model bundle bytes pinned when the reservoir and model codecs were merged."""

    def test_model_bundle(self, tmp_path):
        res = archived_reservoir()
        ro = Readout(w_out=np.linspace(-1.0, 1.0, 12).reshape(2, 6),
                     standardizer=Standardizer(np.array([0.5, -1.0]), np.array([2.0, 3.0])),
                     n_fit=123)
        path = tmp_path / "model.npz"
        save_model(path, res, ro)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == MODEL_SHA256
        back, ro_back = load_model(path)
        assert np.array_equal(back.w_r.toarray(), res.w_r.toarray())
        assert back.spec == res.spec and ro_back.n_fit == 123
        assert np.array_equal(ro_back.standardizer.scale, [2.0, 3.0])

    def test_schemas_not_interchangeable(self, tmp_path):
        # a bundle with every member of a model but another schema string
        model_path, foreign_path = tmp_path / "model.npz", tmp_path / "foreign.npz"
        save_model(model_path, archived_reservoir(), identity_readout(np.zeros((2, 6)), 2))
        with np.load(model_path) as archive:
            members = dict(archive)
        np.savez(foreign_path, **{**members, "schema": np.array("rcbasin-reservoir-1")})
        with pytest.raises(SchemaMismatchError, match="rcbasin-reservoir-1"):
            load_model(foreign_path)


def parent_evolve(res, r, n_steps, inputs=None, w_out=None, keep_last=None):
    """Reference: the plain two-statement update loop the kernel must match bit for bit."""
    kept = n_steps if keep_last is None else min(keep_last, n_steps)
    first_kept = n_steps - kept
    records = np.empty((kept, res.n_r if w_out is None else res.n_in) + r.shape[1:])
    bias = res.bias if r.ndim == 1 else res.bias[:, None]
    lam = res.leakage
    with np.errstate(invalid="ignore", over="ignore"):
        for k in range(n_steps):
            if w_out is None:
                u = inputs[k]
            else:
                u = w_out @ r
                if k >= first_kept:
                    records[k - first_kept] = u
                if k + 1 == n_steps:
                    break
            # two statements: as one expression this ran ~2x slower at (200, 512)
            pre = res.w_r @ r + res.w_in @ u + bias
            r = (1.0 - lam) * r + lam * np.tanh(pre)
            if w_out is None and k >= first_kept:
                records[k - first_kept] = r
    if r.ndim == 2:
        # the kernel's column layout: (m, kept, width)
        return np.ascontiguousarray(records.transpose(2, 0, 1))
    return records


def kernel(res, r, n_steps, inputs=None, **kw):
    """``_evolve`` on (n_r, m) columns; a 1-d run goes in as one column and comes back 1-d."""
    if r.ndim == 2:
        return _evolve(res, r, n_steps, inputs=inputs, **kw)
    if inputs is not None:
        inputs = inputs[..., None]
    return _evolve(res, r[:, None], n_steps, inputs=inputs, **kw)[0]


def identity_case(n_in, leakage, columns, bias_strength=0.5, n_steps=30, order="C"):
    """Reservoir, readout weights, inputs and start states as the kernel takes them.

    Batched inputs are the (n_steps, n_in, m) strided view that
    ``drive_open_loop_batch`` passes.  Batched start states are (n_r, m)
    columns, C-ordered as the pipeline passes them (the transpose of
    ``drive_open_loop_batch``'s result) or F-ordered as a C-ordered
    (m, n_r) array gives them.
    """
    res = build_reservoir(small_spec(n_r=60, n_in=n_in, leakage=leakage,
                                     bias_strength=bias_strength, seed=n_in))
    rng = np.random.default_rng(10 * n_in + (columns or 0))
    w_out = rng.standard_normal((n_in, res.n_r)) * 0.3
    if columns is None:
        return res, w_out, rng.standard_normal((n_steps, n_in)), rng.uniform(-1, 1, res.n_r)
    inputs = rng.standard_normal((columns, n_steps, n_in)).transpose(1, 2, 0)
    starts = np.asarray(rng.uniform(-1, 1, (columns, res.n_r)), order="F" if order == "C" else "C")
    return res, w_out, inputs, starts.T


def assert_same_bytes(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


class TestKernelIdentity:
    """The in-place kernel gives the reference loop's bytes."""

    @pytest.mark.parametrize("n_in", [1, 2, 3])
    @pytest.mark.parametrize("leakage", [1.0, 0.3])
    @pytest.mark.parametrize("columns", [None, 1, 7])
    @pytest.mark.parametrize("keep_last", [None, 1, 5])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_open_and_closed_loop(self, n_in, leakage, columns, keep_last, order):
        res, w_out, inputs, r0 = identity_case(n_in, leakage, columns, order=order)
        assert_same_bytes(kernel(res, r0, 30, inputs=inputs, keep_last=keep_last),
                          parent_evolve(res, r0, 30, inputs=inputs, keep_last=keep_last))
        # the closed loop reads its start from the kernel's C-ordered copy
        assert_same_bytes(kernel(res, r0, 30, w_out=w_out, keep_last=keep_last),
                          parent_evolve(res, np.ascontiguousarray(r0), 30, w_out=w_out,
                                        keep_last=keep_last))

    @pytest.mark.parametrize("n_in", [1, 2])
    @pytest.mark.parametrize("leakage", [1.0, 0.3])
    @pytest.mark.parametrize("columns", [None, 7])
    def test_signed_zeros(self, n_in, leakage, columns):
        res, w_out, inputs, r0 = identity_case(n_in, leakage, columns, bias_strength=0.0)
        inputs = np.where(np.arange(inputs.size).reshape(inputs.shape) % 2, 0.0, -0.0)
        r0 = np.where(np.arange(r0.size).reshape(r0.shape) % 3, 0.0, -0.0)
        for kw in ({"inputs": inputs}, {"w_out": w_out}):
            new = kernel(res, r0, 30, **kw)
            assert_same_bytes(new, parent_evolve(res, r0, 30, **kw))
            assert not np.any(new)

    @pytest.mark.parametrize("n_in", [1, 2])
    @pytest.mark.parametrize("leakage", [1.0, 0.3])
    @pytest.mark.parametrize("columns", [None, 7])
    def test_nan_start_closed_loop(self, n_in, leakage, columns):
        res, w_out, _, r0 = identity_case(n_in, leakage, columns)
        r0 = r0.copy()
        r0[::4] = np.nan
        if columns is not None:
            r0[:, ::2] = np.nan
        new = kernel(res, r0, 30, w_out=w_out)
        assert_same_bytes(new, parent_evolve(res, r0, 30, w_out=w_out))
        assert np.isnan(new[..., 1:, :]).all()

    @pytest.mark.parametrize("n_in", [1, 2])
    @pytest.mark.parametrize("columns", [None, 7])
    def test_nan_start_open_loop_leaky(self, n_in, columns):
        res, _, inputs, r0 = identity_case(n_in, 0.3, columns)
        r0 = r0.copy()
        r0[::4] = np.nan
        new = kernel(res, r0, 30, inputs=inputs)
        assert_same_bytes(new, parent_evolve(res, r0, 30, inputs=inputs))
        assert np.isnan(new[..., ::4]).all()

    @pytest.mark.parametrize("n_in", [1, 2])
    @pytest.mark.parametrize("leakage", [1.0, 0.3])
    def test_zero_input_weight_times_infinite_input(self, n_in, leakage):
        # 0 * inf is NaN: a zero input weight must still meet an infinite input
        w_in = np.tile([[0.0], [1.0], [-0.5]], (1, n_in))
        res = hand_reservoir(0.3 * np.eye(3), w_in, [0.1, 0.0, -0.2], leakage=leakage)
        inputs = np.array([[1.0] * n_in, [np.inf] * n_in, [-np.inf] * n_in, [2.0] * n_in])
        w_out = np.full((n_in, 3), 1e308)
        for kw in ({"inputs": inputs}, {"w_out": w_out}):
            new = kernel(res, np.ones(3), 4, **kw)
            assert_same_bytes(new, parent_evolve(res, np.ones(3), 4, **kw))
            assert np.isnan(new[-1]).any()

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_full_update_forgets_nonfinite_start(self, bad):
        # leakage 1 skips the blend: a start entry reaches the next state only
        # through w_r, which is empty here.  The reference's 0 * r makes it NaN.
        res = build_reservoir(small_spec(spectral_radius=0.0))
        signal = np.random.default_rng(5).standard_normal((6, 1))
        r0 = np.zeros(res.n_r)
        r0[[0, 7]] = bad
        new = kernel(res, r0, 6, inputs=signal)
        assert np.all(np.isfinite(new))
        assert_same_bytes(new, kernel(res, np.zeros(res.n_r), 6, inputs=signal))
        assert np.isnan(parent_evolve(res, r0, 6, inputs=signal)[:, [0, 7]]).all()

    def test_leaky_update_keeps_nonfinite_start(self):
        res = build_reservoir(small_spec(spectral_radius=0.0, leakage=0.3))
        r0 = np.zeros(res.n_r)
        r0[3] = np.inf
        new = kernel(res, r0, 4, inputs=np.ones((4, 1)))
        assert np.all(new[:, 3] == np.inf) and np.all(np.isfinite(np.delete(new, 3, axis=1)))


class TestStartLayout:
    @pytest.mark.parametrize("n_in", [1, 2])
    @pytest.mark.parametrize("leakage", [1.0, 0.3])
    def test_closed_loop_ignores_memory_order(self, n_in, leakage):
        res = build_reservoir(small_spec(n_r=60, n_in=n_in, leakage=leakage))
        rng = np.random.default_rng(4)
        ro = identity_readout(rng.standard_normal((n_in, 60)) * 0.3, n_in)
        starts = rng.uniform(-1, 1, (16, 60))
        c_out = run_closed_loop_batch(res, ro, np.ascontiguousarray(starts), 20)
        f_out = run_closed_loop_batch(res, ro, np.asfortranarray(starts), 20)
        assert_same_bytes(c_out, f_out)


class TestCallerArraysUntouched:
    @staticmethod
    def case(n_in, leakage):
        res = build_reservoir(small_spec(n_r=40, n_in=n_in, leakage=leakage))
        rng = np.random.default_rng(6)
        ro = identity_readout(rng.standard_normal((n_in, 40)) * 0.1, n_in)
        return res, ro, rng.uniform(-1, 1, (5, 40)), rng.standard_normal((5, 12, n_in))

    @pytest.mark.parametrize("n_in", [1, 2])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("leakage", [1.0, 0.3])
    def test_batches(self, n_in, order, leakage):
        # an F-ordered (m, n_r) start is passed to the kernel as a view
        res, ro, starts, inputs = self.case(n_in, leakage)
        starts, inputs = np.asarray(starts, order=order), np.asarray(inputs, order=order)
        before = starts.tobytes(), inputs.tobytes()
        drive_open_loop_batch(res, inputs)
        run_closed_loop_batch(res, ro, starts, 12)
        assert (starts.tobytes(), inputs.tobytes()) == before

    @pytest.mark.parametrize("n_in", [1, 2])
    @pytest.mark.parametrize("leakage", [1.0, 0.3])
    def test_single_runs(self, n_in, leakage):
        res, ro, starts, inputs = self.case(n_in, leakage)
        r0, signal = starts[0].copy(), inputs[0].copy()
        drive_open_loop(res, signal, r0)
        kernel(res, r0, 12, inputs=signal)
        kernel(res, r0, 12, w_out=ro.w_out)
        assert r0.tobytes() == starts[0].tobytes()
        assert signal.tobytes() == inputs[0].tobytes()


def dense_build(spec):
    """Reference: the construction that drew the dense n_r x n_r arrays at once."""
    rng = np.random.default_rng(spec.seed)
    n = spec.n_r
    mask = rng.random((n, n)) < spec.mean_degree / n
    weights = rng.uniform(-1.0, 1.0, size=(n, n))
    w_r = sparse.csr_matrix(np.where(mask, weights, 0.0))
    w_r = w_r * (spec.spectral_radius / estimate_spectral_radius(w_r, seed=spec.seed))
    w_in = rng.uniform(-spec.input_strength, spec.input_strength, size=(n, spec.n_in))
    bias = rng.uniform(-spec.bias_strength, spec.bias_strength, size=n)
    return Reservoir(w_r, w_in, bias, spec.leakage, spec=spec)


class TestBlockedBuild:
    @pytest.mark.parametrize("n", [1, 7, 50, 83])
    @pytest.mark.parametrize("rows_per_block", [1, 7, 1000])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_draw_equals_dense(self, n, rows_per_block, seed, monkeypatch):
        monkeypatch.setattr(reservoir_mod, "_BUILD_ENTRIES", rows_per_block * n)
        p = min(1.0, 5.0 / n)
        rng = np.random.default_rng(seed)
        dense = sparse.csr_matrix(np.where(rng.random((n, n)) < p,
                                           rng.uniform(-1.0, 1.0, size=(n, n)), 0.0))
        after_dense = rng.random(4)
        rng = np.random.default_rng(seed)
        blocked = _draw_adjacency(rng, n, p)
        for name in ("data", "indices", "indptr"):
            assert_same_bytes(getattr(blocked, name), getattr(dense, name))
        assert_same_bytes(rng.random(4), after_dense)

    def test_exact_zero_weight_dropped(self, monkeypatch):
        monkeypatch.setattr(reservoir_mod, "_BUILD_ENTRIES", 6)

        class Stream:
            # every mask draw hits; the weight draw -1 + 2 * 0.5 is exactly 0
            def random(self, size):
                return np.zeros(size)

            def uniform(self, low, high, size):
                return low + (high - low) * np.full(size, 0.5)

        w = _draw_adjacency(Stream(), 3, 0.5)
        assert w.nnz == 0 and w.shape == (3, 3)

    @pytest.mark.parametrize("n_r, seed", [(50, 0), (300, 1), (300, 2), (513, 3)])
    @pytest.mark.parametrize("block_rows", [64, 1024])
    def test_build_equals_dense_construction(self, n_r, seed, block_rows, monkeypatch):
        monkeypatch.setattr(reservoir_mod, "_BUILD_ENTRIES", block_rows * n_r)
        spec = small_spec(n_r=n_r, n_in=2, seed=seed)
        blocked, dense = build_reservoir(spec), dense_build(spec)
        for name in ("data", "indices", "indptr"):
            assert_same_bytes(getattr(blocked.w_r, name), getattr(dense.w_r, name))
        assert_same_bytes(blocked.w_in, dense.w_in)
        assert_same_bytes(blocked.bias, dense.bias)


@pytest.mark.parametrize("call, error, fragment", [
    pytest.param(lambda: small_spec(input_strength=-1.0), ValueError,
                 "strength ranges must be non-negative", id="input_strength"),
    pytest.param(lambda: small_spec(bias_strength=-1.0), ValueError,
                 "strength ranges must be non-negative", id="bias_strength"),
    pytest.param(lambda: small_spec(n_in=0), ValueError, "n_in must be at least 1", id="n_in"),
    pytest.param(lambda: Reservoir(sparse.csr_matrix((2, 3)), np.ones((2, 1)), np.zeros(2), 1.0),
                 DimensionMismatchError, "w_r must be square", id="w_r_square"),
    pytest.param(lambda: hand_reservoir(np.eye(2), np.ones(2), np.zeros(2)),
                 DimensionMismatchError, "w_in must be (n_r, n_in)", id="w_in_ndim"),
    pytest.param(lambda: Reservoir(sparse.eye(2, format="csr"), 1.0, np.zeros(2), 1.0),
                 DimensionMismatchError, "w_in must be (n_r, n_in)", id="w_in_scalar"),
    pytest.param(lambda: hand_reservoir(np.eye(2), np.ones((3, 1)), np.zeros(2)),
                 DimensionMismatchError, "w_in must be (n_r, n_in)", id="w_in_rows"),
    pytest.param(lambda: hand_reservoir(np.eye(2), np.ones((2, 1)), np.zeros(3)),
                 DimensionMismatchError, "bias must be (n_r,)", id="bias"),
    pytest.param(lambda: run_closed_loop_batch(hand_reservoir(np.eye(2), np.ones((2, 1)),
                                                              np.zeros(2)),
                                               identity_readout(np.ones((1, 2)), 1),
                                               np.zeros((1, 2)), 0),
                 ValueError, "n_steps must be at least 1", id="closed_loop_steps"),
])
def test_input_checks(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call()
