import os
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import rcbasin.experiment as experiment_mod
from rcbasin.classify import CORRECT, BasinOutcome, score
from rcbasin.errors import (
    DimensionMismatchError,
    InvalidWindowError,
    NonFiniteError,
    SamplingExhaustedError,
    SchemaMismatchError,
    StepSizeUnderflowError,
)
from rcbasin.experiment import (
    BASIN_COLORS,
    SPURIOUS_COLOR,
    UNRESOLVED_COLOR,
    WRONG_COLOR,
    BasinMap,
    ExperimentConfig,
    SweepRow,
    config_hash,
    default_config,
    generate_training_set,
    load_basin_map,
    make_grid,
    outcome_color,
    persist,
    render_basin_map,
    run_basin_experiment,
    run_sweep,
    system_from_config,
    truth_and_test_signals,
    write_sweep_csv,
)
from rcbasin.systems import AdaptiveEnsemble
from rcbasin.timeseries import read_table
def wells_config(**overrides):
    base = dict(resolution=6, horizon=800, n_test=5, n_train=8,
                seed_reservoir=0, seed_sampling=1, seed_noise=2)
    base.update(overrides)
    return default_config("multi_well", **base)


@pytest.fixture(scope="module")
def wells_map():
    return run_basin_experiment(wells_config())


class TestConfig:
    def test_presets_exist(self):
        for name in ("duffing", "multi_well", "magnetic_pendulum", "multistable_lorenz"):
            cfg = default_config(name)
            assert cfg.system == name

    def test_unknown_system(self):
        with pytest.raises(ValueError):
            default_config("tent_map")

    def test_window_validation(self):
        with pytest.raises(InvalidWindowError):
            default_config("multi_well", n_test=100, horizon=100)
        # the forecast window must hold the tail the classifier labels
        with pytest.raises(InvalidWindowError, match=r"\(10\).*tail_len \(25\)"):
            default_config("duffing", n_test=10, horizon=20)
        assert default_config("duffing", n_test=10, horizon=35).horizon == 35
        with pytest.raises(InvalidWindowError, match=r"\(250\).*kl_tail \(500\)"):
            default_config("multistable_lorenz", n_test=50, horizon=300)
        assert default_config("multistable_lorenz", n_test=50, horizon=300,
                              kl_threshold=None).kl_tail == 500

    @pytest.mark.parametrize("override, message", [
        (dict(eta=-1), "eta must be non-negative"),
        (dict(eps_c=0), "eps_c must be positive"),
        (dict(leakage=2), "leakage must lie in"),
    ])
    def test_sub_config_checks_run_at_construction(self, override, message):
        with pytest.raises(ValueError, match=message):
            default_config("duffing", **override)

    @pytest.mark.parametrize("factor", [0, -3])
    def test_attempt_factor_at_least_one(self, factor):
        with pytest.raises(ValueError, match="max_attempt_factor must be at least 1"):
            default_config("multi_well", max_attempt_factor=factor)

    def test_training_signal_leaves_a_fit_pair(self):
        with pytest.raises(InvalidWindowError, match=r"train_sig_len \(6\).*n_trans \+ 2 \(7\)"):
            default_config("duffing", train_sig_len=6)
        assert default_config("duffing", train_sig_len=7).train_sig_len == 7

    @pytest.mark.parametrize("override", [dict(grid_axes=(0,)), dict(grid_axes=(1, 1)),
                                          dict(grid_axes=(0, 1, 2)), dict(grid_axes=(-1, 0)),
                                          dict(observe=(0, -1))])
    def test_index_fields_checked_at_construction(self, override):
        with pytest.raises(ValueError, match="non-negative"):
            default_config("duffing", **override)

    @pytest.mark.parametrize("override", [dict(grid_axes=(0, 2)), dict(observe=(0, 2))])
    def test_index_beyond_dim_rejected_with_the_system(self, override):
        cfg = default_config("duffing", **override)
        with pytest.raises(DimensionMismatchError, match="the 2 state components of duffing"):
            system_from_config(cfg)
        with pytest.raises(DimensionMismatchError):
            make_grid(cfg)
        assert system_from_config(default_config("magnetic_pendulum", **override)).dim == 4

    def test_forced_duffing_drops_energy_barrier(self):
        cfg = default_config("duffing", system_params={"f0": 1.0})
        assert cfg.energy_barrier is None
        assert default_config("duffing").energy_barrier == 0.0

    def test_hash_distinguishes_configs(self):
        a = default_config("duffing")
        b = default_config("duffing", seed_noise=99)
        assert config_hash(a) != config_hash(b)
        assert config_hash(a) == config_hash(default_config("duffing"))


class TestMakeGrid:
    def test_row_major_plane(self):
        cfg = wells_config(resolution=3, test_half_width=1.0)
        coords, ics = make_grid(cfg)
        assert coords.shape == (9, 2) and ics.shape == (9, 2)
        assert np.allclose(coords[0], [-1.0, -1.0])
        assert np.allclose(coords[1], [-1.0, 0.0])  # second axis varies fastest
        assert np.allclose(coords[-1], [1.0, 1.0])

    def test_off_plane_components_zero(self):
        cfg = default_config("magnetic_pendulum", resolution=3, n_r=10)
        coords, ics = make_grid(cfg)
        assert ics.shape == (9, 4)
        assert np.all(ics[:, 2:] == 0.0)

    def test_lorenz_grid_in_x_zero_plane(self):
        cfg = default_config("multistable_lorenz", resolution=3)
        _, ics = make_grid(cfg)
        assert np.all(ics[:, 0] == 0.0)


class TestGenerateTrainingSet:
    def test_wells_restriction_is_quadrant(self):
        cfg = wells_config(restrict_to_basin=0, n_train=12)
        signals = generate_training_set(cfg)
        assert len(signals) == 12
        starts = signals[:, 0]
        assert np.all(starts[:, 0] < 0) and np.all(starts[:, 1] < 0)

    def test_duffing_restriction_reclassifies(self):
        # fully observed draws restricted to the minus basin: re-integrating
        # each accepted start must classify to that basin under the energy test
        from rcbasin.classify import classify_fixed_point
        from rcbasin.experiment import criteria_from_config
        from rcbasin.systems import integrate_rk4

        cfg = default_config("duffing", n_train=10, restrict_to_basin=0,
                             observe=(0, 1))
        sys = system_from_config(cfg)
        crit = criteria_from_config(cfg)
        signals = generate_training_set(cfg)
        assert len(signals) == 10
        for sig in signals:
            traj = integrate_rk4(sys, sig[0], cfg.dt, cfg.reject_horizon)
            assert classify_fixed_point(traj, sys, crit, full_state=True) == 0

    def test_unrestricted_accepts_everything(self):
        cfg = wells_config(n_train=5)
        signals = generate_training_set(cfg)
        assert isinstance(signals, np.ndarray)
        assert signals.shape == (5, cfg.train_sig_len, 2)

    def test_observation_mask_applied(self):
        cfg = default_config("duffing", n_train=2)
        signals = generate_training_set(cfg)
        assert signals.shape == (2, cfg.train_sig_len, 1)

    def test_nonfinite_unrestricted_signal_raises(self, monkeypatch):
        trajectories = experiment_mod._trajectories

        def blowing_up(cfg_, sys, ics, n_steps):
            block, failed = trajectories(cfg_, sys, ics, n_steps)
            block[1, -1, 0] = np.inf
            return block, failed

        monkeypatch.setattr(experiment_mod, "_trajectories", blowing_up)
        with pytest.raises(NonFiniteError, match="is not finite"):
            generate_training_set(wells_config(n_train=3))

    def test_sampling_exhausted_for_unreachable_basin(self):
        # the duffing system has two attractors, so label 5 never matches
        cfg = default_config("duffing", n_train=2, restrict_to_basin=5,
                             max_attempt_factor=8)
        with pytest.raises(SamplingExhaustedError):
            generate_training_set(cfg)

    def test_deterministic_given_seed(self):
        cfg = wells_config(restrict_to_basin=2, n_train=4)
        a = generate_training_set(cfg)
        b = generate_training_set(cfg)
        assert a.tobytes() == b.tobytes()


class TestAdaptiveSamplingBlocks:
    """A rejection block is one adaptive ensemble, examined in draw order."""

    @staticmethod
    def config():
        # labels of the first block: 1 first at candidates 4, 5, 6 and 9
        return default_config("duffing", adaptive_truth=True, observe=(0, 1),
                              n_train=4, restrict_to_basin=1, reject_horizon=1000,
                              train_sig_len=200)

    @staticmethod
    def candidates(cfg):
        return np.random.default_rng(cfg.seed_sampling).uniform(
            -cfg.train_half_width, cfg.train_half_width,
            size=(experiment_mod._REJECT_BLOCK, 2))

    @staticmethod
    def failing_at(monkeypatch, row):
        """Make the adaptive ensemble report ``row`` as failed after 5 samples."""
        integrate = experiment_mod.integrate_adaptive

        def failing(*args, **kwargs):
            result = integrate(*args, **kwargs)
            values, failed = result.values.copy(), result.failed.copy()
            values[5:, row] = np.nan
            failed[row] = True
            return AdaptiveEnsemble(values, failed)

        monkeypatch.setattr(experiment_mod, "integrate_adaptive", failing)

    def test_block_is_one_call_in_draw_order(self, monkeypatch):
        cfg = self.config()
        calls = []
        integrate = experiment_mod.integrate_adaptive

        def recording(*args, **kwargs):
            calls.append(np.array(args[1]))
            return integrate(*args, **kwargs)

        monkeypatch.setattr(experiment_mod, "integrate_adaptive", recording)
        signals = generate_training_set(cfg)
        assert len(signals) == cfg.n_train
        assert len(calls) == 1
        assert np.array_equal(calls[0], self.candidates(cfg))

    def test_accepts_what_single_integrations_accept(self):
        from rcbasin.classify import classify_fixed_point
        from rcbasin.experiment import criteria_from_config
        from rcbasin.systems import integrate_adaptive

        cfg = self.config()
        sys = system_from_config(cfg)
        crit = criteria_from_config(cfg)
        expected = []
        for coords in self.candidates(cfg):
            traj = integrate_adaptive(sys, coords, t_end=cfg.reject_horizon * cfg.dt,
                                      rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol,
                                      sample_dt=cfg.dt)
            if classify_fixed_point(traj, sys, crit, full_state=True) == 1:
                expected.append(traj.values[:cfg.train_sig_len])
            if len(expected) == cfg.n_train:
                break
        signals = generate_training_set(cfg)
        assert len(signals) == len(expected) == cfg.n_train
        for signal, values in zip(signals, expected):
            assert signal.tobytes() == values.tobytes()

    def test_failure_before_last_acceptance_raises(self, monkeypatch):
        self.failing_at(monkeypatch, 5)
        with pytest.raises(StepSizeUnderflowError):
            generate_training_set(self.config())

    def test_failure_after_last_acceptance_is_never_examined(self, monkeypatch):
        cfg = self.config()
        clean = generate_training_set(cfg)
        self.failing_at(monkeypatch, 10)
        signals = generate_training_set(cfg)
        assert len(signals) == len(clean) == cfg.n_train
        assert signals.tobytes() == clean.tobytes()


class TestRestrictToBasinRange:
    @pytest.mark.parametrize("basin", [-1, 2])
    def test_out_of_range_raises_before_any_integration(self, basin, monkeypatch):
        calls = []
        for name in ("rk4_ensemble", "integrate_adaptive"):
            monkeypatch.setattr(experiment_mod, name,
                                lambda *args, **kwargs: calls.append(args))
        for adaptive in (False, True):
            cfg = default_config("duffing", n_train=2, restrict_to_basin=basin,
                                 adaptive_truth=adaptive)
            with pytest.raises(SamplingExhaustedError, match=f"{basin}.*has 2"):
                generate_training_set(cfg)
        assert calls == []


def parent_generate_training_set(cfg):
    """Reference: the sampling loop with fixed 32-candidate blocks."""
    sys = system_from_config(cfg)
    rng = np.random.default_rng(cfg.seed_sampling)
    basin = cfg.restrict_to_basin
    crit = experiment_mod.criteria_from_config(cfg)
    if basin is None or sys.chaotic:
        n_steps = cfg.train_sig_len - 1
    else:
        n_steps = cfg.reject_horizon

    signals = []
    attempts = 0
    cap = cfg.max_attempt_factor * cfg.n_train
    while len(signals) < cfg.n_train:
        block = min(32, cap - attempts)
        if basin is None:
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
        trajectories, failed = experiment_mod._trajectories(cfg, sys, ics, n_steps)
        for ic, values, fail in zip(ics, trajectories, failed):
            attempts += 1
            if fail:
                raise experiment_mod._underflow(ic)
            if basin is not None:
                label = experiment_mod.label_trajectories(sys, crit, values[None],
                                                          range(sys.dim))[0]
                if label != basin or not np.isfinite(values).all():
                    continue
            signals.append(values[:cfg.train_sig_len][:, list(cfg.observe)])
            if len(signals) == cfg.n_train:
                break
    return signals


class TestNeedSizedBlocks:
    """Blocks are sized from the remaining need and accept the same signals."""

    @staticmethod
    def record_widths(monkeypatch):
        widths = []
        trajectories = experiment_mod._trajectories

        def recording(cfg, sys, ics, n_steps):
            widths.append(len(ics))
            return trajectories(cfg, sys, ics, n_steps)

        monkeypatch.setattr(experiment_mod, "_trajectories", recording)
        return widths

    @staticmethod
    def assert_same_signals(cfg, monkeypatch):
        expected = parent_generate_training_set(cfg)
        widths = TestNeedSizedBlocks.record_widths(monkeypatch)
        signals = generate_training_set(cfg)
        assert len(signals) == len(expected) == cfg.n_train
        for a, b in zip(signals, expected):
            assert a.tobytes() == b.tobytes()
        return widths

    def test_restricted_rk4(self, monkeypatch):
        cfg = default_config("duffing", n_train=60, restrict_to_basin=0)
        widths = self.assert_same_signals(cfg, monkeypatch)
        assert widths[0] == 60 and len(widths) >= 2

    @pytest.mark.parametrize("n_train, chunk, first", [(12, 5, 5), (40, 512, 40)])
    def test_restricted_adaptive(self, n_train, chunk, first, monkeypatch):
        # the first 32 candidates hold 12 acceptances: blocks of at most 5
        # make the 12-signal case cross block boundaries
        monkeypatch.setattr(experiment_mod, "CELL_CHUNK", chunk)
        cfg = default_config("duffing", adaptive_truth=True, observe=(0, 1),
                             n_train=n_train, restrict_to_basin=1, reject_horizon=1000,
                             train_sig_len=200)
        widths = self.assert_same_signals(cfg, monkeypatch)
        assert widths[0] == first and len(widths) >= 2

    def test_unrestricted_is_one_block(self, monkeypatch):
        cfg = wells_config(n_train=40)
        assert self.assert_same_signals(cfg, monkeypatch) == [40]

    def test_restricted_chaotic(self, monkeypatch):
        # blocks of at most 7 differ from the reference's 32 without the
        # cost of labelling 33 accepted Lorenz candidates
        monkeypatch.setattr(experiment_mod, "CELL_CHUNK", 7)
        cfg = default_config("multistable_lorenz", restrict_to_basin=1,
                             train_sig_len=600, n_train=3)
        widths = self.assert_same_signals(cfg, monkeypatch)
        assert widths[0] == 7

    def test_blocks_clamped_to_cell_chunk(self, monkeypatch):
        monkeypatch.setattr(experiment_mod, "CELL_CHUNK", 40)
        cfg = default_config("duffing", n_train=60, restrict_to_basin=0)
        widths = self.assert_same_signals(cfg, monkeypatch)
        assert max(widths) == 40

    def test_exhaustion_integrates_exactly_the_cap(self, monkeypatch):
        # a quarter of the box lies in basin 0, so 80 draws yield about 20
        cfg = wells_config(n_train=40, restrict_to_basin=0, max_attempt_factor=2)
        widths = self.record_widths(monkeypatch)
        with pytest.raises(SamplingExhaustedError, match="in 80 attempts"):
            generate_training_set(cfg)
        assert widths[0] == 40 and sum(widths) == 80

    def test_candidates_labelled_lazily(self, monkeypatch):
        import rcbasin.classify as classify_mod

        calls = []
        kl = classify_mod.kl_divergence

        def counting(*args, **kwargs):
            calls.append(None)
            return kl(*args, **kwargs)

        monkeypatch.setattr(classify_mod, "kl_divergence", counting)
        widths = self.record_widths(monkeypatch)
        cfg = default_config("multistable_lorenz", restrict_to_basin=0,
                             train_sig_len=600)
        assert len(generate_training_set(cfg)) == cfg.n_train == 1
        assert widths == [32]
        assert len(calls) == 2  # the first candidate, against both lobes


class TestExhaustionMessage:
    """Exhaustion reports the acceptance rate and the cap it ran into."""

    def test_quarter_basin_reports_rate_and_cap(self):
        # a quarter of the box lies in basin 0: it plainly intersects the box
        cfg = wells_config(n_train=40, restrict_to_basin=0, max_attempt_factor=2)
        with pytest.raises(SamplingExhaustedError) as info:
            generate_training_set(cfg)
        message = str(info.value)
        assert message.startswith("accepted 19/40 signals in 80 attempts")
        assert "23.8% acceptance" in message
        assert "max_attempt_factor * n_train = 80" in message
        assert "may not intersect" not in message

    def test_no_acceptance_doubts_the_box(self):
        # both draws of sampling seed 1 land outside basin 0
        cfg = wells_config(n_train=2, restrict_to_basin=0, max_attempt_factor=1)
        with pytest.raises(SamplingExhaustedError,
                           match=r"^accepted 0/2 signals in 2 attempts .*"
                                 "may not intersect the sampling box$"):
            generate_training_set(cfg)


class TestSamplingWindow:
    def test_short_reject_horizon_raises_before_any_integration(self, monkeypatch):
        calls = []
        for name in ("rk4_ensemble", "integrate_adaptive"):
            monkeypatch.setattr(experiment_mod, name,
                                lambda *args, **kwargs: calls.append(args))
        for adaptive in (False, True):
            cfg = default_config("duffing", n_train=2, restrict_to_basin=0,
                                 reject_horizon=100, adaptive_truth=adaptive)
            with pytest.raises(InvalidWindowError, match=r"\(100\).*\(499\)"):
                generate_training_set(cfg)
        assert calls == []

    def test_horizon_of_signal_length_suffices(self):
        cfg = default_config("duffing", n_train=2, restrict_to_basin=0,
                             reject_horizon=499)
        assert generate_training_set(cfg).shape[:2] == (2, 500)

    def test_chaotic_sampling_ignores_reject_horizon(self):
        cfg = default_config("multistable_lorenz", restrict_to_basin=0,
                             train_sig_len=600, reject_horizon=100)
        assert generate_training_set(cfg).shape[1] == 600


class TestAdaptiveTruthTasks:
    """Adaptive truth integrates each cell chunk as one ensemble."""

    @staticmethod
    def config():
        return default_config("duffing", adaptive_truth=True, resolution=9,
                              horizon=600, n_test=10)

    def test_one_call_per_chunk(self, monkeypatch):
        cfg = self.config()
        _, ics = make_grid(cfg)
        whole = truth_and_test_signals(cfg, ics)
        sizes = []
        integrate = experiment_mod.integrate_adaptive

        def recording(*args, **kwargs):
            sizes.append(len(args[1]))
            return integrate(*args, **kwargs)

        monkeypatch.setattr(experiment_mod, "integrate_adaptive", recording)
        monkeypatch.setattr(experiment_mod, "CELL_CHUNK", 32)
        chunked = truth_and_test_signals(cfg, ics)
        assert sizes == [32, 32, 17]
        assert np.array_equal(whole[0], chunked[0])
        assert chunked[1].tobytes() == whole[1].tobytes()

    def test_failed_cell_raises(self, monkeypatch):
        cfg = self.config()
        _, ics = make_grid(cfg)
        TestAdaptiveSamplingBlocks.failing_at(monkeypatch, 40)
        with pytest.raises(StepSizeUnderflowError):
            truth_and_test_signals(cfg, ics)


class TestRunBasinExperiment:
    def test_easy_regime_high_accuracy(self, wells_map):
        # all four basins trained, decoupled dynamics: nearly everything lands
        assert wells_map.metrics.f_c >= 0.95

    def test_metrics_partition(self, wells_map):
        m = wells_map.metrics
        assert m.f_c + m.f_wrong + m.f_spurious + m.f_unresolved == pytest.approx(1.0)
        assert m.n == 36

    def test_truth_labels_ignore_reservoir_seed(self):
        a = run_basin_experiment(wells_config(seed_reservoir=0))
        b = run_basin_experiment(wells_config(seed_reservoir=123))
        assert np.array_equal(a.true_labels, b.true_labels)

    def test_deterministic(self, wells_map):
        again = run_basin_experiment(wells_config())
        assert np.array_equal(again.true_labels, wells_map.true_labels)
        assert again.outcomes == wells_map.outcomes
        assert again.metrics == wells_map.metrics

    def test_chunking_does_not_change_outcomes(self, wells_map, monkeypatch):
        monkeypatch.setattr(experiment_mod, "CELL_CHUNK", 7)
        chunked = run_basin_experiment(wells_config())
        assert chunked.outcomes == wells_map.outcomes

    def test_observation_mask_reaches_reservoir(self, monkeypatch):
        # x-only duffing: every array driven into the reservoir is 1-wide and
        # carries exactly the standardized x components of the truth
        driven = []
        original = experiment_mod.drive_open_loop_batch

        def spy(res, inputs):
            driven.append(np.array(inputs))
            return original(res, inputs)

        monkeypatch.setattr(experiment_mod, "drive_open_loop_batch", spy)
        cfg = default_config("duffing", resolution=4, horizon=300, n_test=5,
                             n_train=3, n_r=60)
        basin_map = run_basin_experiment(cfg)
        assert driven and all(block.shape[2] == 1 for block in driven)
        assert basin_map.metrics.n == 16

        # rebuild the standardized x prefixes independently and compare with
        # what actually reached the reservoir
        from rcbasin.systems import rk4_ensemble
        from rcbasin.timeseries import fit_standardizer

        sys = system_from_config(cfg)
        standardizer = fit_standardizer(generate_training_set(cfg, sys).reshape(-1, 1))
        _, ics = make_grid(cfg)
        ensemble = rk4_ensemble(sys, ics, cfg.dt, cfg.n_test - 1)
        x_prefix = np.moveaxis(ensemble[..., :1], 0, 1)
        assert np.array_equal(driven[0], standardizer.apply_values(x_prefix))

    def test_baseline_present_for_fixed_point(self, wells_map):
        assert wells_map.baseline_labels is not None
        assert wells_map.baseline_f_c is not None
        # wells baseline picks the corner quadrant of the settled test end
        assert wells_map.baseline_f_c > 0.5


class TestPooledChunks:
    """Each cell chunk is one job, from truth to forecast label, wherever it runs."""

    CONFIGS = {
        # KL labelling of truth and forecasts runs in the workers
        "multistable_lorenz": dict(n_r=50, restrict_to_basin=0, train_sig_len=600,
                                   resolution=3, n_test=20, horizon=400, kl_tail=100),
        # adaptive truth runs in the workers
        "magnetic_pendulum": dict(n_r=50, n_train=2, train_sig_len=300, resolution=3,
                                  n_test=20, horizon=300),
    }

    @staticmethod
    def artifacts(basin_map, out):
        out.mkdir()
        persist(basin_map, out / "map.csv")
        render_basin_map(basin_map, out / "map.ppm")
        return [(out / name).read_bytes() for name in ("map.csv", "map.csv.meta", "map.ppm")]

    @pytest.mark.parametrize("system", sorted(CONFIGS))
    def test_artifacts_do_not_depend_on_parallel(self, system, tmp_path, monkeypatch):
        monkeypatch.setattr(experiment_mod, "CELL_CHUNK", 4)  # 9 cells in 3 chunks
        cfg = default_config(system, **self.CONFIGS[system])
        serial = self.artifacts(run_basin_experiment(cfg, parallel=1), tmp_path / "p1")
        pooled = self.artifacts(run_basin_experiment(cfg, parallel=2), tmp_path / "p2")
        assert pooled == serial

    def test_closed_loop_leaves_the_parent(self, monkeypatch):
        monkeypatch.setattr(experiment_mod, "CELL_CHUNK", 12)  # 36 cells in 3 chunks
        serial = run_basin_experiment(wells_config())
        calls = []
        closed_loop = experiment_mod.run_closed_loop_batch

        def spy(*args, **kwargs):
            calls.append(args)
            return closed_loop(*args, **kwargs)

        # forked workers inherit the spy, but their calls land in their own copy
        monkeypatch.setattr(experiment_mod, "run_closed_loop_batch", spy)
        pooled = run_basin_experiment(wells_config(), parallel=2)
        assert calls == []
        assert np.array_equal(pooled.true_labels, serial.true_labels)
        assert pooled.outcomes == serial.outcomes
        assert np.array_equal(pooled.baseline_labels, serial.baseline_labels)


class TestDuffingTruthStructure:
    def test_matches_stored_reference(self):
        # the two-basin spiral structure of the truth labels on the standard
        # 150 x 150 grid, pinned against a stored reference integration
        import functools
        import pathlib

        cfg = default_config("duffing", resolution=150)
        _, ics = make_grid(cfg)
        chunks = [ics[lo:lo + experiment_mod.CELL_CHUNK]
                  for lo in range(0, len(ics), experiment_mod.CELL_CHUNK)]
        labels = np.concatenate([chunk_labels for chunk_labels, _ in experiment_mod._run_jobs(
            functools.partial(truth_and_test_signals, cfg), chunks, parallel=2)])
        grid = labels.reshape(150, 150)

        reference_path = pathlib.Path(__file__).parent / "data" / "duffing_truth_150.txt"
        stored = np.array([[int(c) for c in line] for line in
                           reference_path.read_text().splitlines()])
        assert np.array_equal(grid, stored)

        # structural checks: equal basins by symmetry, interleaved bands
        assert np.mean(labels == 0) == 0.5
        diagonal = np.diagonal(grid)
        assert np.sum(diagonal[1:] != diagonal[:-1]) >= 5


class TestPersistence:
    def test_round_trip_and_byte_identity(self, wells_map, tmp_path):
        p1 = tmp_path / "map.csv"
        p2 = tmp_path / "again.csv"
        persist(wells_map, p1)
        loaded = load_basin_map(p1)
        persist(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert (tmp_path / "map.csv.meta").read_bytes() == \
               (tmp_path / "again.csv.meta").read_bytes()

    def test_metrics_recomputable(self, wells_map, tmp_path):
        path = tmp_path / "map.csv"
        persist(wells_map, path)
        loaded = load_basin_map(path)
        assert loaded.metrics == score(wells_map.outcomes, wells_map.true_labels)
        meta = (tmp_path / "map.csv.meta").read_text()
        assert f"f_c={wells_map.metrics.f_c!r}" in meta

    def test_schema_mismatch(self, wells_map, tmp_path):
        path = tmp_path / "map.csv"
        persist(wells_map, path)
        meta_path = tmp_path / "map.csv.meta"
        text = meta_path.read_text().replace("basinmap-1", "basinmap-9")
        meta_path.write_text(text)
        with pytest.raises(SchemaMismatchError):
            load_basin_map(path)

    def test_provenance_carries_seeds(self, wells_map, tmp_path):
        path = tmp_path / "map.csv"
        persist(wells_map, path)
        loaded = load_basin_map(path)
        assert loaded.provenance["seed_reservoir"] == 0
        assert loaded.provenance["config_hash"] == wells_map.provenance["config_hash"]


class TestRender:
    def test_uniform_map_pixels(self, tmp_path):
        outcomes = [BasinOutcome(CORRECT, 0)] * 4
        basin_map = BasinMap(coords=np.zeros((4, 2)), true_labels=np.zeros(4, int),
                             outcomes=outcomes, resolution=2,
                             metrics=score(outcomes, [0] * 4), provenance={})
        path = tmp_path / "map.ppm"
        render_basin_map(basin_map, path)
        data = path.read_bytes()
        assert data.startswith(b"P6\n2 2\n255\n")
        pixels = data.split(b"255\n", 1)[1]
        assert pixels == bytes(BASIN_COLORS[0]) * 4

    def test_palette_injective(self):
        colors = [outcome_color(BasinOutcome(CORRECT, a)) for a in range(4)]
        colors += [WRONG_COLOR, SPURIOUS_COLOR, UNRESOLVED_COLOR]
        assert len(set(colors)) == len(colors)

    def test_rerender_byte_identical(self, wells_map, tmp_path):
        p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
        render_basin_map(wells_map, p1)
        render_basin_map(wells_map, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestSweep:
    def test_single_cell_matches_experiment(self, wells_map):
        cfg = wells_config()
        rows, errors = run_sweep(cfg, [cfg.n_train], [cfg.train_half_width],
                                 [cfg.test_half_width], realizations=1)
        assert not errors
        assert len(rows) == 1
        assert rows[0].f_c == wells_map.metrics.f_c
        assert rows[0].f_spurious == wells_map.metrics.f_spurious

    def test_factorial_row_count(self):
        cfg = wells_config(resolution=3, horizon=400)
        rows, errors = run_sweep(cfg, [2, 4], [3.0, 4.0], [4.0], realizations=2)
        assert len(rows) == 8 and not errors
        means = {}
        for row in rows:
            means.setdefault((row.n_train, row.half_train), []).append(row.f_c)
        for vals in means.values():
            assert min(vals) <= np.mean(vals) <= max(vals)

    def test_failed_cells_recorded_not_fatal(self):
        cfg = default_config("duffing", resolution=2, horizon=60, n_test=4,
                             n_train=2, n_r=30, restrict_to_basin=7,
                             max_attempt_factor=4)
        rows, errors = run_sweep(cfg, [2], [4.0], [4.0], realizations=1)
        assert len(rows) == 1 and np.isnan(rows[0].f_c)
        assert errors and "realization=0" in errors[0]

    def test_parallel_matches_serial(self):
        cfg = wells_config(resolution=3, horizon=400)
        serial, _ = run_sweep(cfg, [2, 3], [4.0], [4.0], realizations=1, parallel=1)
        para, _ = run_sweep(cfg, [2, 3], [4.0], [4.0], realizations=1, parallel=2)
        assert serial == para

    def test_parallel_records_failed_and_passing_cells(self):
        # n_train = 0 fails the config check inside its worker
        cfg = wells_config(resolution=3, horizon=400)
        rows, errors = run_sweep(cfg, [0, 2], [4.0], [4.0], realizations=1, parallel=2)
        serial, _ = run_sweep(cfg, [2], [4.0], [4.0], realizations=1, parallel=1)
        assert [row.n_train for row in rows] == [0, 2]
        assert np.isnan(rows[0].f_c) and np.isnan(rows[0].f_spurious)
        assert rows[1] == serial[0]
        assert len(errors) == 1 and "n_train=0" in errors[0]
        assert "n_train must be at least 1" in errors[0]

    def test_realizations_below_one_rejected(self, monkeypatch):
        def no_jobs(*args, **kwargs):
            raise AssertionError("a job ran")

        monkeypatch.setattr(experiment_mod, "_run_jobs", no_jobs)
        with pytest.raises(ValueError, match="realizations must be at least 1"):
            run_sweep(wells_config(), [2], [4.0], [4.0], realizations=0)

    def test_pool_no_wider_than_the_jobs(self, monkeypatch):
        widths = []

        class Pool:
            def __init__(self, max_workers):
                widths.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(experiment_mod, "ProcessPoolExecutor", Pool)
        assert experiment_mod._run_jobs(abs, [-2, 3], parallel=6) == [2, 3]
        assert experiment_mod._run_jobs(abs, [-1, -2, -3], parallel=2) == [1, 2, 3]
        assert widths == [2, 2]

    def test_dead_worker_ends_the_run(self):
        with pytest.raises(BrokenProcessPool):
            experiment_mod._run_jobs(os._exit, [3, 3], parallel=2)

    def test_csv_round_trip(self, tmp_path):
        cfg = wells_config(resolution=3, horizon=400)
        rows, _ = run_sweep(cfg, [2], [4.0], [3.0, 4.0], realizations=1)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, path)
        header, cells = read_table(path)
        assert [SweepRow(int(nt), float(ht), float(hv), int(r), float(fc), float(fs))
                for nt, ht, hv, r, fc, fs in cells] == rows
        assert header == "n_train,half_train,half_test,realization,f_c,f_spurious"

    def test_duffing_training_range_effect(self):
        # wide training boxes generalize, narrow ones collapse: the mean
        # fraction correct at half-width 10 beats half-width 4
        cfg = default_config("duffing", n_train=10, restrict_to_basin=0,
                             resolution=12, n_test=10,
                             seed_reservoir=0, seed_sampling=1, seed_noise=2)
        rows, errors = run_sweep(cfg, [2, 10], [4.0, 10.0], [10.0],
                                 realizations=2, parallel=2)
        assert not errors
        mean = {}
        for row in rows:
            mean.setdefault((row.n_train, row.half_train), []).append(row.f_c)
        assert np.mean(mean[(10, 10.0)]) > np.mean(mean[(10, 4.0)])
