import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from rcbasin import reservoir as reservoir_mod
from rcbasin import training as training_mod
from rcbasin.errors import (
    DimensionMismatchError,
    SchemaMismatchError,
    SingularSystemError,
    TooShortError,
)
from rcbasin.experiment import default_config, train_from_config
from rcbasin.reservoir import Reservoir, ReservoirSpec, build_reservoir
from rcbasin.systems import duffing, integrate_rk4
from rcbasin.timeseries import Standardizer, TimeSeries
from rcbasin.training import (
    NormalAccumulator,
    Readout,
    TrainConfig,
    fit_mse,
    load_model,
    save_model,
    solve_readout,
    train,
    train_with_mse,
)


@pytest.fixture(scope="module")
def duffing_signals():
    sys = duffing()
    rng = np.random.default_rng(17)
    signals = []
    for _ in range(3):
        ic = rng.uniform(-8, 8, size=2)
        signals.append(integrate_rk4(sys, ic, 0.01, 499).observe([0]))
    return signals


def small_reservoir(n_in=1, seed=0, n_r=100):
    return build_reservoir(ReservoirSpec(n_r=n_r, mean_degree=10.0, spectral_radius=0.4,
                                         input_strength=1.0, bias_strength=0.5,
                                         leakage=1.0, n_in=n_in, seed=seed))


class TestAccumulator:
    def test_empty_batch_is_noop(self):
        acc = NormalAccumulator(4, 2)
        acc.accumulate(np.zeros((0, 4)), np.zeros((0, 2)))
        assert acc.n_fit == 0
        assert not acc.rrt.any() and not acc.yrt.any()

    def test_unit_vector_outer_product(self):
        # state e1 with target (1, 0) adds a single 1 in each block corner
        acc = NormalAccumulator(3, 2)
        acc.accumulate(np.array([[1.0, 0.0, 0.0]]), np.array([[1.0, 0.0]]))
        assert acc.rrt[0, 0] == 1.0 and acc.rrt.sum() == 1.0
        assert acc.yrt[0, 0] == 1.0 and acc.yrt.sum() == 1.0
        assert acc.n_fit == 1

    def test_batch_split_equivalence(self):
        rng = np.random.default_rng(0)
        states = rng.standard_normal((100, 6))
        targets = rng.standard_normal((100, 2))
        whole = NormalAccumulator(6, 2).accumulate(states, targets)
        parts = NormalAccumulator(6, 2)
        for lo in range(0, 100, 7):
            parts.accumulate(states[lo:lo + 7], targets[lo:lo + 7])
        assert np.linalg.norm(whole.rrt - parts.rrt) <= 1e-10 * np.linalg.norm(whole.rrt)
        assert np.linalg.norm(whole.yrt - parts.yrt) <= 1e-10 * np.linalg.norm(whole.yrt)
        assert whole.n_fit == parts.n_fit == 100

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        acc = NormalAccumulator(8, 1)
        acc.accumulate(rng.standard_normal((64, 8)), rng.standard_normal((64, 1)))
        asym = np.abs(acc.rrt - acc.rrt.T).max()
        assert asym <= 1e-9 * np.abs(acc.rrt).max()

    def test_exactly_symmetric_in_any_layout(self):
        rng = np.random.default_rng(4)
        base = rng.standard_normal((300, 40))
        targets = rng.standard_normal((150, 1))
        for states in (base[:150], np.asfortranarray(base[:150]), base[::2]):
            acc = NormalAccumulator(40, 1).accumulate(states, targets)
            acc.accumulate(states, targets)
            assert np.array_equal(acc.rrt, acc.rrt.T)
        states = base[:150]
        block = states.T @ states
        acc = NormalAccumulator(40, 1).accumulate(states, targets)
        assert np.array_equal(acc.rrt, 0.5 * (block + block.T))

    def test_order_independent_merge(self):
        rng = np.random.default_rng(2)
        blocks = [(rng.standard_normal((10, 5)), rng.standard_normal((10, 1)))
                  for _ in range(6)]
        fwd = NormalAccumulator(5, 1)
        for s, t in blocks:
            fwd.accumulate(s, t)
        rev = NormalAccumulator(5, 1)
        for s, t in reversed(blocks):
            rev.accumulate(s, t)
        assert np.linalg.norm(fwd.rrt - rev.rrt) <= 1e-10 * np.linalg.norm(fwd.rrt)

    def test_duplicate_signal_adds_exact_contribution(self):
        rng = np.random.default_rng(3)
        states = rng.standard_normal((30, 4))
        targets = rng.standard_normal((30, 1))
        once = NormalAccumulator(4, 1).accumulate(states, targets)
        twice = NormalAccumulator(4, 1).accumulate(states, targets)
        twice.accumulate(states, targets)
        assert np.array_equal(twice.rrt - once.rrt, once.rrt)
        assert np.array_equal(twice.yrt - once.yrt, once.yrt)

    def test_dimension_mismatch(self):
        acc = NormalAccumulator(4, 1)
        with pytest.raises(DimensionMismatchError):
            acc.accumulate(np.zeros((3, 4)), np.zeros((2, 1)))


class TestMerge:
    """Two halves accumulated into one accumulator merge into the one-batch sums."""

    @staticmethod
    def halves(seed=4, rows=100):
        rng = np.random.default_rng(seed)
        states = rng.standard_normal((rows, 6))
        targets = rng.standard_normal((rows, 2))
        half = rows // 2
        first = NormalAccumulator(6, 2).accumulate(states[:half], targets[:half])
        second = NormalAccumulator(6, 2).accumulate(states[half:], targets[half:])
        whole = NormalAccumulator(6, 2).accumulate(states, targets)
        merged = NormalAccumulator(6, 2).accumulate(states[:half], targets[:half])
        return first, second, whole, merged.accumulate(states[half:], targets[half:])

    def test_halves_match_one_accumulation(self):
        _, _, whole, merged = self.halves()
        for name in ("rrt", "yrt"):
            diff = getattr(merged, name) - getattr(whole, name)
            assert np.linalg.norm(diff) <= 1e-12 * np.linalg.norm(getattr(whole, name))
        assert merged.target_sq == pytest.approx(whole.target_sq, rel=1e-12)
        assert merged.n_fit == whole.n_fit

    def test_counts_add_exactly(self):
        first, second, _, merged = self.halves(rows=37)
        assert merged.n_fit == first.n_fit + second.n_fit == 37
        assert merged.target_sq == first.target_sq + second.target_sq

    @pytest.mark.parametrize("shape", [(5, 2), (6, 1), (4, 3)])
    def test_shape_mismatch(self, shape):
        acc = NormalAccumulator(6, 2)
        with pytest.raises(DimensionMismatchError):
            acc.accumulate(np.zeros((3, shape[0])), np.zeros((3, shape[1])))
        with pytest.raises(DimensionMismatchError):
            NormalAccumulator(*shape).accumulate(np.zeros((3, 6)), np.zeros((3, 2)))


class TestSolveReadout:
    def test_identity_when_targets_equal_states(self):
        rng = np.random.default_rng(4)
        states = rng.standard_normal((40, 5))
        acc = NormalAccumulator(5, 5).accumulate(states, states)
        w = solve_readout(acc, alpha=0.0)
        assert np.abs(w - np.eye(5)).max() < 1e-8

    def test_huge_alpha_shrinks_weights(self):
        rng = np.random.default_rng(5)
        states = rng.standard_normal((50, 4))
        targets = rng.standard_normal((50, 2))
        acc = NormalAccumulator(4, 2).accumulate(states, targets)
        w = solve_readout(acc, alpha=1e12)
        assert np.linalg.norm(w) <= 1e-6

    def test_two_node_hand_case(self):
        # states {(1,0), (1,1)}, targets {2, 3}: normal equations give (2, 1)
        acc = NormalAccumulator(2, 1)
        acc.accumulate(np.array([[1.0, 0.0], [1.0, 1.0]]), np.array([[2.0], [3.0]]))
        w = solve_readout(acc, alpha=0.0)
        assert w[0] == pytest.approx([2.0, 1.0], abs=1e-12)

    def test_singular_without_regularization(self):
        acc = NormalAccumulator(3, 1)
        acc.accumulate(np.array([[1.0, 0.0, 0.0]]), np.array([[1.0]]))
        with pytest.raises(SingularSystemError):
            solve_readout(acc, alpha=0.0)

    def test_least_squares_when_factorization_fails(self):
        # one pair: alpha * n_fit = 1e-300 vanishes beside rrt = [[1, 1], [1, 1]]
        acc = NormalAccumulator(2, 1).accumulate(np.array([[1.0, 1.0]]), np.array([[2.0]]))
        lhs = acc.rrt + 1e-300 * np.eye(2)
        with pytest.raises(scipy.linalg.LinAlgError, match="not positive definite"):
            scipy.linalg.cho_factor(lhs, lower=True, check_finite=False)
        w = solve_readout(acc, alpha=1e-300)
        assert np.array_equal(w, scipy.linalg.lstsq(lhs, acc.yrt.T)[0].T)
        assert w == pytest.approx(np.array([[1.0, 1.0]]))

    def test_holds_one_copy_of_rrt(self):
        n_r = 500
        rng = np.random.default_rng(0)
        acc = NormalAccumulator(n_r, 2).accumulate(
            np.tanh(rng.standard_normal((2 * n_r, n_r))), rng.standard_normal((2 * n_r, 2)))
        expected = scipy.linalg.solve(acc.rrt + 1e-8 * acc.n_fit * np.eye(n_r), acc.yrt.T).T
        tracemalloc.start()
        try:
            w = solve_readout(acc, alpha=1e-8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * acc.rrt.nbytes
        assert w == pytest.approx(expected, rel=1e-6, abs=1e-9)

    def test_no_pairs_rejected(self):
        with pytest.raises(ValueError):
            solve_readout(NormalAccumulator(2, 1), alpha=1.0)


class TestTrain:
    def test_n_fit_formula(self, duffing_signals):
        res = small_reservoir()
        ro = train(res, duffing_signals, TrainConfig(n_trans=5))
        assert ro.n_fit == 3 * 500 - 3 * (5 + 1)

    def test_too_short_signal(self):
        res = small_reservoir()
        short = TimeSeries(np.zeros((6, 1)) + np.arange(6)[:, None], 0.01)
        with pytest.raises(TooShortError):
            train(res, [short], TrainConfig(n_trans=5))

    def test_input_forms_agree(self, duffing_signals):
        # a list of TimeSeries, a list of arrays and one 3-d array are the same input
        res = small_reservoir()
        cfg = TrainConfig(eta=1e-3, seed=4)
        stack = np.array([s.values for s in duffing_signals])
        readouts = [train(res, signals, cfg) for signals in
                    (duffing_signals, [s.values for s in duffing_signals], stack)]
        for ro in readouts[1:]:
            assert ro.w_out.tobytes() == readouts[0].w_out.tobytes()
            assert ro.standardizer.shift.tobytes() == readouts[0].standardizer.shift.tobytes()

    def test_unequal_lengths(self, duffing_signals):
        res = small_reservoir()
        signals = [duffing_signals[0], TimeSeries(duffing_signals[1].values[:120], 0.01),
                   duffing_signals[2]]
        ro = train(res, signals, TrainConfig(n_trans=5))
        assert ro.n_fit == 500 + 120 + 500 - 3 * (5 + 1)

    @pytest.mark.parametrize("signals", [np.zeros((2, 50, 2)), [np.zeros(50)],
                                         np.zeros((50, 1))])
    def test_signal_shape_checked(self, signals):
        with pytest.raises(DimensionMismatchError, match="expects \\(n_samples, 1\\)"):
            train(small_reservoir(), signals, TrainConfig())

    def test_nonfinite_signal_rejected(self, duffing_signals):
        bad = duffing_signals[1].values.copy()
        bad[7, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            train(small_reservoir(), [duffing_signals[0], bad], TrainConfig())

    def test_batched_training_equivalence(self, duffing_signals):
        # identical noise stream per signal, so batching only regroups sums
        res = small_reservoir()
        cfg = dict(n_trans=5, alpha=1e-6, eta=1e-3, seed=3)
        full = train(res, duffing_signals, TrainConfig(batch_max_states=10_000, **cfg))
        for batch in (1, 7, 64):
            part = train(res, duffing_signals, TrainConfig(batch_max_states=batch, **cfg))
            rel = (np.linalg.norm(part.w_out - full.w_out)
                   / np.linalg.norm(full.w_out))
            assert rel <= 1e-8
            assert part.n_fit == full.n_fit

    def test_memory_contract(self, duffing_signals, monkeypatch):
        seen = []
        original = reservoir_mod.drive_open_loop

        def spy(res, signal, r0):
            states = original(res, signal, r0)
            seen.append(states.shape[0])
            return states

        monkeypatch.setattr(training_mod, "drive_open_loop", spy)
        train(small_reservoir(), duffing_signals, TrainConfig(batch_max_states=8))
        assert seen and max(seen) <= 8

    def test_frees_each_chunk_before_the_next(self):
        # one 3,000-step signal in chunks of 1,000: one chunk of states is held
        # at a time, beside rrt, the Gram buffer and the solve's copy
        res = small_reservoir(n_r=200)
        signal = np.random.default_rng(14).standard_normal((3001, 1))
        chunk_bytes, rrt_bytes = 1000 * res.n_r * 8, res.n_r**2 * 8
        tracemalloc.start()
        try:
            train(res, [signal], TrainConfig(batch_max_states=1000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * chunk_bytes + 3 * rrt_bytes

    def test_interpolation_regime_mse(self):
        # more nodes than fit pairs: ridge at alpha 1e-12 interpolates
        res = small_reservoir(n_r=120)
        rng = np.random.default_rng(9)
        signal = TimeSeries(np.cumsum(rng.standard_normal(46))[:, None] * 0.05, 0.01)
        _, mse = train_with_mse(res, [signal], TrainConfig(n_trans=5, alpha=1e-12, eta=0.0))
        assert mse <= 1e-10

    def test_fit_mse_matches_direct_residual(self):
        rng = np.random.default_rng(10)
        states = rng.standard_normal((60, 6))
        targets = rng.standard_normal((60, 2))
        acc = NormalAccumulator(6, 2).accumulate(states, targets)
        w = solve_readout(acc, alpha=1e-8)
        direct = np.mean(np.sum((states @ w.T - targets) ** 2, axis=1))
        assert fit_mse(acc, w) == pytest.approx(direct, rel=1e-9)

    def test_standardizer_override(self):
        res = small_reservoir()
        signal = TimeSeries(np.full((50, 1), 2.0), 0.01)
        ro = train(res, [signal], TrainConfig(eta=1e-4),
                   standardizer=Standardizer.identity(1))
        assert np.array_equal(ro.standardizer.shift, [0.0])

    def test_noise_seed_changes_readout(self, duffing_signals):
        res = small_reservoir()
        a = train(res, duffing_signals, TrainConfig(eta=1e-3, seed=0))
        b = train(res, duffing_signals, TrainConfig(eta=1e-3, seed=1))
        assert not np.array_equal(a.w_out, b.w_out)


class TestColumnBlocks:
    """Consecutive one-input signals of equal length are driven k at a time,
    k = min(batch_max_states, 2 n_r) // (N - 1), and give the bytes of one
    signal at a time."""

    @staticmethod
    def drive_widths(monkeypatch, fit):
        widths = []

        def spy(res, signal, r0):
            widths.append(np.shape(r0)[0] if np.ndim(r0) == 2 else 1)
            return reservoir_mod.drive_open_loop(res, signal, r0)

        monkeypatch.setattr(training_mod, "drive_open_loop", spy)
        return widths, fit()

    def test_blocks_match_single_signals(self, monkeypatch):
        # n_r 50 and 20-sample signals: k = 100 // 19 = 5
        cfg = default_config("duffing", n_r=50, train_sig_len=20, n_train=12)
        widths, (_, blocked, blocked_mse) = self.drive_widths(
            monkeypatch, lambda: train_from_config(cfg))
        assert widths == [5, 5, 2]
        single_cfg = replace(cfg, batch_max_states=cfg.train_sig_len - 1)
        widths, (_, single, single_mse) = self.drive_widths(
            monkeypatch, lambda: train_from_config(single_cfg))
        assert widths == [1] * 12
        assert blocked.w_out.tobytes() == single.w_out.tobytes()
        assert blocked_mse == single_mse

    @pytest.mark.parametrize("n_in, expected", [(1, [2, 1, 3]), (2, [1] * 6)])
    def test_runs_break_at_length_changes(self, monkeypatch, n_in, expected):
        # k is 5 for 20 samples and 3 for 30; two inputs drive one at a time
        rng = np.random.default_rng(12)
        signals = [rng.standard_normal((n, n_in)) for n in (20, 20, 30, 20, 20, 20)]
        res = small_reservoir(n_in=n_in, n_r=50)
        widths, (blocked, blocked_mse) = self.drive_widths(
            monkeypatch, lambda: train_with_mse(res, signals, TrainConfig()))
        assert widths == expected
        _, (single, single_mse) = self.drive_widths(
            monkeypatch, lambda: train_with_mse(res, signals, TrainConfig(batch_max_states=29)))
        assert blocked.w_out.tobytes() == single.w_out.tobytes()
        assert blocked_mse == single_mse

    def test_chunks_continue_single_drives(self, monkeypatch):
        # two inputs, 61-sample signals, batch_max_states 25: each signal is
        # driven in chunks of 25, 25 and 10 steps, each accumulated as it comes
        rng = np.random.default_rng(13)
        signals = [rng.standard_normal((61, 2)) for _ in range(2)]
        res = small_reservoir(n_in=2, n_r=50)
        calls = []
        accumulate = NormalAccumulator.accumulate

        def spy(self, states, targets):
            calls.append((states.copy(), targets.copy()))
            return accumulate(self, states, targets)

        monkeypatch.setattr(NormalAccumulator, "accumulate", spy)
        # identity standardizer and no noise: the reservoir sees the raw signals
        train(res, signals, TrainConfig(n_trans=5, eta=0.0, batch_max_states=25),
              standardizer=Standardizer.identity(2))
        expected = []
        for values in signals:
            state = np.zeros(res.n_r)
            for pos in (0, 25, 50):
                states = reservoir_mod.drive_open_loop(res, values[pos:min(pos + 25, 60)], state)
                lo = max(5 - pos, 0)
                expected.append((states[lo:], values[pos + 1 + lo:pos + 1 + len(states)]))
                state = states[-1]
        assert [len(s) for s, _ in calls] == [20, 25, 10] * 2
        for (states, targets), (want_states, want_targets) in zip(calls, expected, strict=True):
            assert states.tobytes() == want_states.tobytes()
            assert targets.tobytes() == want_targets.tobytes()


def test_normal_equations_do_not_depend_on_thread_count():
    # rrt and yrt of one fixed list of batches, at 1 and 2 BLAS threads
    script = textwrap.dedent("""
        import hashlib
        import numpy as np
        from rcbasin.training import NormalAccumulator
        rng = np.random.default_rng(0)
        acc = NormalAccumulator(400, 2)
        for rows in (494, 200, 1, 37, 494):
            acc.accumulate(np.tanh(rng.standard_normal((rows, 400))),
                           rng.standard_normal((rows, 2)))
        print(hashlib.sha256(acc.rrt.tobytes()).hexdigest(),
              hashlib.sha256(acc.yrt.tobytes()).hexdigest())
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout)
    assert digests[0] == digests[1]


class TestModelBundle:
    def test_round_trip(self, tmp_path, duffing_signals):
        res = small_reservoir()
        ro = train(res, duffing_signals, TrainConfig())
        path = tmp_path / "model.npz"
        save_model(path, res, ro)
        res2, ro2 = load_model(path)
        assert np.array_equal(ro2.w_out, ro.w_out)
        assert np.array_equal(res2.w_r.toarray(), res.w_r.toarray())
        assert np.array_equal(ro2.standardizer.shift, ro.standardizer.shift)
        assert ro2.n_fit == ro.n_fit

    def test_rerun_byte_identical(self, tmp_path, duffing_signals):
        res = small_reservoir()
        ro = train(res, duffing_signals, TrainConfig())
        p1, p2 = tmp_path / "m1.npz", tmp_path / "m2.npz"
        save_model(p1, res, ro)
        save_model(p2, res, ro)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("damage, fragment", [
        (lambda spec: spec[:7], "8 numbers, not a float64 array of shape (7,)"),
        (lambda spec: np.append(spec, 1.0), "8 numbers, not a float64 array of shape (9,)"),
        (lambda spec: spec[0], "8 numbers, not a float64 array of shape ()"),
        (lambda spec: np.concatenate([[20.7], spec[1:]]), "n_r = 20.7 is not an integer"),
    ], ids=["seven-values", "nine-values", "zero-d", "fractional-n_r"])
    def test_damaged_spec_rejected(self, tmp_path, duffing_signals, damage, fragment):
        # every other member matches n_r 20, which the fractional n_r used to load as
        res = small_reservoir(n_r=20)
        path = tmp_path / "model.npz"
        save_model(path, res, train(res, duffing_signals, TrainConfig()))
        with np.load(path) as archive:
            members = dict(archive)
        np.savez(path, **{**members, "spec": damage(members["spec"])})
        with pytest.raises(SchemaMismatchError, match=re.escape(fragment)):
            load_model(path)

    def test_readout_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Readout(w_out=np.array([[np.inf]]), standardizer=Standardizer.identity(1),
                    n_fit=1)


def unspecified_reservoir():
    res = small_reservoir(n_r=10)
    return Reservoir(res.w_r, res.w_in, res.bias, res.leakage)


@pytest.mark.parametrize("call, error, fragment", [
    pytest.param(lambda: TrainConfig(n_trans=-1), ValueError,
                 "n_trans must be non-negative", id="n_trans"),
    pytest.param(lambda: TrainConfig(alpha=-1.0), ValueError,
                 "alpha must be non-negative", id="alpha"),
    pytest.param(lambda: TrainConfig(batch_max_states=0), ValueError,
                 "batch_max_states must be at least 1", id="batch_max_states"),
    pytest.param(lambda: Readout(np.ones(3), Standardizer.identity(1), 1), DimensionMismatchError,
                 "w_out must be a matrix", id="w_out_ndim"),
    pytest.param(lambda: Readout(np.ones((1, 3)), Standardizer.identity(1), 0), ValueError,
                 "n_fit must be positive", id="n_fit"),
    pytest.param(lambda: train(small_reservoir(n_r=10), [], TrainConfig()), ValueError,
                 "need at least one training signal", id="no_signals"),
    pytest.param(lambda: save_model("unused.npz", unspecified_reservoir(),
                                    Readout(np.ones((1, 10)), Standardizer.identity(1), 1)),
                 ValueError, "only reservoirs built from a ReservoirSpec can be saved",
                 id="save_without_spec"),
])
def test_input_checks(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call()
