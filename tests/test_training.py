import numpy as np
import pytest
import scipy.linalg

from rcbasin import reservoir as reservoir_mod
from rcbasin import training as training_mod
from rcbasin.errors import (
    DimensionMismatchError,
    SingularSystemError,
    TooShortError,
)
from rcbasin.reservoir import ReservoirSpec, build_reservoir
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

    def test_readout_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Readout(w_out=np.array([[np.inf]]), standardizer=Standardizer.identity(1),
                    n_fit=1)
