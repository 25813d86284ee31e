import numpy as np
import pytest

import rcbasin.experiment as experiment_mod
from rcbasin.classify import CORRECT, BasinOutcome, score
from rcbasin.errors import (
    InvalidWindowError,
    SamplingExhaustedError,
    SchemaMismatchError,
)
from rcbasin.experiment import (
    BASIN_COLORS,
    SPURIOUS_COLOR,
    UNRESOLVED_COLOR,
    WRONG_COLOR,
    BasinMap,
    ExperimentConfig,
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
    read_sweep_csv,
    system_from_config,
    truth_and_test_signals,
    write_sweep_csv,
)
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
        starts = np.array([s.values[0] for s in signals])
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
            traj = integrate_rk4(sys, sig.values[0], cfg.dt, cfg.reject_horizon)
            assert classify_fixed_point(traj, sys, crit, full_state=True) == 0

    def test_unrestricted_accepts_everything(self):
        cfg = wells_config(n_train=5)
        signals = generate_training_set(cfg)
        assert len(signals) == 5
        assert all(s.n_samples == cfg.train_sig_len for s in signals)

    def test_observation_mask_applied(self):
        cfg = default_config("duffing", n_train=2)
        signals = generate_training_set(cfg)
        assert all(s.n_components == 1 for s in signals)

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
        assert all(np.array_equal(x.values, y.values) for x, y in zip(a, b))


class TestLazyAdaptiveSampling:
    """Serial adaptive sampling integrates no candidate past the last acceptance."""

    @staticmethod
    def config():
        # labels of the first block: 1 first at candidates 4, 5, 6 and 9
        return default_config("duffing", adaptive_truth=True, observe=(0, 1),
                              n_train=4, restrict_to_basin=1, reject_horizon=1000,
                              train_sig_len=200)

    def test_stops_at_last_acceptance(self, monkeypatch):
        cfg = self.config()
        calls = []
        integrate = experiment_mod.integrate_adaptive

        def counting(*args, **kwargs):
            calls.append(args[1])
            return integrate(*args, **kwargs)

        monkeypatch.setattr(experiment_mod, "integrate_adaptive", counting)
        signals = generate_training_set(cfg)
        block = experiment_mod._REJECT_BLOCK
        candidates = np.random.default_rng(cfg.seed_sampling).uniform(
            -cfg.train_half_width, cfg.train_half_width, size=(block, 2))
        starts = np.array([s.values[0] for s in signals])
        picked = [int(np.argmin(np.abs(candidates - x).sum(axis=1))) for x in starts]
        assert np.allclose(candidates[picked], starts, rtol=0.0, atol=1e-12)
        assert len(signals) == cfg.n_train
        assert picked == sorted(picked) and picked[-1] + 1 < block
        assert len(calls) == picked[-1] + 1
        assert np.array_equal(np.array(calls), candidates[:len(calls)])

    def test_serial_equals_pool(self):
        cfg = self.config()
        serial = generate_training_set(cfg)
        pooled = generate_training_set(cfg, parallel=2)
        assert len(serial) == len(pooled) == cfg.n_train
        for a, b in zip(serial, pooled):
            assert np.array_equal(a.values, b.values)


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

    def test_parallel_truth_identical(self):
        cfg = wells_config()
        _, ics = make_grid(cfg)
        labels1, prefixes1 = truth_and_test_signals(cfg, ics, parallel=1)
        labels2, prefixes2 = truth_and_test_signals(cfg, ics, parallel=2)
        assert np.array_equal(labels1, labels2)
        assert np.array_equal(prefixes1, prefixes2)

    def test_observation_mask_reaches_reservoir(self, monkeypatch):
        # x-only duffing: every array driven into the reservoir is 1-wide and
        # carries exactly the standardized x components of the truth
        driven = []
        original = experiment_mod.drive_open_loop_batch

        def spy(res, inputs, r0=None):
            driven.append(np.array(inputs))
            return original(res, inputs, r0)

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
        standardizer = fit_standardizer(generate_training_set(cfg, sys))
        _, ics = make_grid(cfg)
        ensemble = rk4_ensemble(sys, ics, cfg.dt, cfg.n_test - 1)
        x_prefix = np.moveaxis(ensemble[..., :1], 0, 1)
        assert np.array_equal(driven[0], standardizer.apply_values(x_prefix))

    def test_baseline_present_for_fixed_point(self, wells_map):
        assert wells_map.baseline_labels is not None
        assert wells_map.baseline_f_c is not None
        # wells baseline picks the corner quadrant of the settled test end
        assert wells_map.baseline_f_c > 0.5


class TestDuffingTruthStructure:
    def test_matches_stored_reference(self):
        # the two-basin spiral structure of the truth labels on the standard
        # 150 x 150 grid, pinned against a stored reference integration
        import pathlib

        cfg = default_config("duffing", resolution=150)
        _, ics = make_grid(cfg)
        labels, _ = truth_and_test_signals(cfg, ics, parallel=2)
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

    def test_csv_round_trip(self, tmp_path):
        cfg = wells_config(resolution=3, horizon=400)
        rows, _ = run_sweep(cfg, [2], [4.0], [3.0, 4.0], realizations=1)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, path)
        assert read_sweep_csv(path) == rows
        header = path.read_text().splitlines()[0]
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
