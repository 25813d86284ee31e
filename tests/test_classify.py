import warnings

import numpy as np
import pytest
from scipy.special import logsumexp

from rcbasin import classify as classify_mod
from rcbasin.classify import (
    CORRECT,
    SPURIOUS,
    UNRESOLVED,
    WRONG,
    BasinOutcome,
    ConvergenceCriteria,
    classify_chaotic,
    classify_fixed_point,
    kl_divergence,
    make_outcome,
    nearest_attractor,
    nearest_magnet_baseline,
    score,
)
from rcbasin.classify import (
    _log_mixture_density,
    _log_mixture_density_blocked,
    _logsumexp_rows,
    _reference_side,
    _tail_block,
)
from rcbasin.errors import DegenerateCloudError, DimensionMismatchError
from rcbasin.systems import (
    duffing,
    magnetic_pendulum,
    multi_well,
    multistable_lorenz,
    rk4_ensemble,
)
from rcbasin.timeseries import TimeSeries

DUFFING_CRIT = ConvergenceCriteria(eps_c=0.5, tail_len=25, energy_barrier=0.0)
LORENZ_CRIT = ConvergenceCriteria(eps_c=1.0, kl_threshold=1.0, kl_tail=500)


def flat_series(point, n=50, dt=0.01):
    return TimeSeries(np.tile(np.asarray(point, dtype=float), (n, 1)), dt)


class TestClassifyFixedPoint:
    def test_constant_at_attractor(self):
        sys = duffing()
        traj = flat_series([-np.sqrt(10), 0.0])
        assert classify_fixed_point(traj, sys, DUFFING_CRIT) == 0

    def test_energy_criterion_full_state(self):
        # end at (3.16, 0): energy -2.5 sits below the barrier at 0
        sys = duffing()
        values = np.linspace([8.0, -4.0], [3.16, 0.0], 100)
        traj = TimeSeries(values, 0.01)
        assert classify_fixed_point(traj, sys, DUFFING_CRIT, full_state=True) == 1

    def test_energy_criterion_rejects_above_barrier(self):
        sys = duffing()
        traj = flat_series([0.5, 3.0])  # kinetic energy alone exceeds the barrier
        label = classify_fixed_point(traj, sys, DUFFING_CRIT, full_state=True)
        assert label == SPURIOUS  # settled by the tail test, far from both wells

    def test_settled_far_point_is_spurious(self):
        # the x-only observation settling at 1.75 matches no true attractor
        sys = duffing()
        traj = flat_series([1.75])
        label = classify_fixed_point(traj, sys, DUFFING_CRIT, components=(0,))
        assert label == SPURIOUS

    def test_unsettled_tail_is_unresolved(self):
        sys = duffing()
        swing = np.column_stack([np.linspace(-8, 8, 50), np.zeros(50)])
        label = classify_fixed_point(TimeSeries(swing, 0.01), sys, DUFFING_CRIT)
        assert label == UNRESOLVED

    def test_partial_observation_projects_attractors(self):
        sys = duffing()
        traj = flat_series([np.sqrt(10)])
        assert classify_fixed_point(traj, sys, DUFFING_CRIT, components=(0,)) == 1

    def test_append_converged_samples_stable(self):
        sys = duffing()
        base = np.tile([np.sqrt(10) + 0.1, 0.0], (40, 1))
        longer = np.vstack([base, np.tile([np.sqrt(10), 0.0], (200, 1))])
        crit = ConvergenceCriteria(eps_c=0.5, tail_len=25)
        assert classify_fixed_point(TimeSeries(base, 0.01), sys, crit) == 1
        assert classify_fixed_point(TimeSeries(longer, 0.01), sys, crit) == 1

    def test_requires_tail(self):
        sys = duffing()
        with pytest.raises(ValueError):
            classify_fixed_point(flat_series([0.0, 0.0], n=10), sys, DUFFING_CRIT)


@pytest.fixture(scope="module")
def lorenz():
    return multistable_lorenz()


@pytest.fixture(scope="module")
def pendulum():
    return magnetic_pendulum()


class TestClassifyChaotic:
    def test_reference_slice_matches(self, lorenz):
        ref = lorenz.attractors[0].reference
        traj = TimeSeries(ref[-500:], 0.02)
        assert classify_chaotic(traj, lorenz.attractors, LORENZ_CRIT) == 0

    def test_other_lobe_slice(self, lorenz):
        ref = lorenz.attractors[1].reference
        traj = TimeSeries(ref[-500:], 0.02)
        assert classify_chaotic(traj, lorenz.attractors, LORENZ_CRIT) == 1

    def test_far_cluster_unresolved(self, lorenz):
        rng = np.random.default_rng(0)
        cloud = rng.standard_normal((500, 3)) + 50.0
        traj = TimeSeries(cloud, 0.02)
        assert classify_chaotic(traj, lorenz.attractors, LORENZ_CRIT) == UNRESOLVED

    def test_lobes_distinguishable(self, lorenz):
        # symmetrized divergence between the true attractors clears the threshold
        up, lo = (a.reference for a in lorenz.attractors)
        inter = 0.5 * (kl_divergence(up, lo) + kl_divergence(lo, up))
        assert inter > LORENZ_CRIT.kl_threshold

    def test_needs_threshold(self, lorenz):
        with pytest.raises(ValueError):
            classify_chaotic(TimeSeries(np.zeros((500, 3)) + 1.0, 0.02),
                             lorenz.attractors,
                             ConvergenceCriteria(eps_c=1.0, kl_tail=500))


class TestKlDivergence:
    def test_self_is_zero(self):
        rng = np.random.default_rng(1)
        cloud = rng.standard_normal((200, 3))
        assert kl_divergence(cloud, cloud) <= 0.05

    def test_self_many_cloud_sizes(self):
        rng = np.random.default_rng(2)
        for n in (200, 500, 2000):
            cloud = rng.standard_normal((n, 2)) * 3.0 + 5.0
            assert kl_divergence(cloud, cloud) <= 0.05

    def test_far_clouds_scale_with_separation(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((200, 3))
        b = rng.standard_normal((200, 3)) + np.array([100.0, 0.0, 0.0])
        assert kl_divergence(a, b) >= 100.0

    def test_asymmetric(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((300, 2)) * np.array([1.0, 0.2])
        b = rng.standard_normal((300, 2)) * np.array([3.0, 1.5]) + 2.0
        ab = kl_divergence(a, b)
        ba = kl_divergence(b, a)
        assert abs(ab - ba) > 0.1

    def test_degenerate_reference_raises(self):
        frozen = np.ones((10, 2))
        spread = np.random.default_rng(5).standard_normal((10, 2))
        with pytest.raises(DegenerateCloudError):
            kl_divergence(frozen, spread)
        assert kl_divergence(frozen, spread, scale_floor=1e-10) > 100.0

    def test_degenerate_test_cloud_allowed(self):
        rng = np.random.default_rng(6)
        ref = rng.standard_normal((100, 2))
        frozen = np.full((50, 2), 30.0)
        assert kl_divergence(ref, frozen) > 100.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            kl_divergence(np.zeros((10, 2)), np.zeros((10, 3)))

    def test_deterministic_default_rng(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((100, 2))
        b = rng.standard_normal((100, 2)) + 1.0
        assert kl_divergence(a, b) == kl_divergence(a, b)


def uncached_side(ref, n_samples=1000):
    """The reference side built afresh, bypassing the cache."""
    ref = np.ascontiguousarray(ref, dtype=float)
    return _reference_side.__wrapped__(ref.tobytes(), ref.shape, n_samples, 0.0)


def uncached_kl(ref, tail, **kwargs):
    """kl_divergence computed with an empty reference-side cache."""
    _reference_side.cache_clear()
    try:
        return kl_divergence(ref, tail, **kwargs)
    finally:
        _reference_side.cache_clear()


class TestKlReferenceCache:
    """The reference side is memoized without changing any value."""

    def test_cached_equals_explicit_default_seed(self, lorenz):
        rng = np.random.default_rng(9)
        for ref in (a.reference for a in lorenz.attractors):
            for built, fresh in zip(_reference_side(ref.tobytes(), ref.shape, 1000, 0.0),
                                    uncached_side(ref)):
                assert np.array_equal(built, fresh)
            tails = (ref[-500:], ref[:500] + 0.3 * rng.standard_normal((500, 3)),
                     rng.standard_normal((500, 3)) * 5.0)
            for tail in tails:
                cached = kl_divergence(ref, tail)
                assert cached == uncached_kl(ref, tail)
                assert kl_divergence(ref, tail) == cached

    def test_degenerate_cloud_through_safe(self):
        frozen = np.ones((10, 2))
        spread = np.random.default_rng(5).standard_normal((10, 2))
        cached = kl_divergence(frozen, spread, scale_floor=1e-10)
        assert cached == uncached_kl(frozen, spread, scale_floor=1e-10)

    def test_in_place_edit_is_not_stale(self):
        rng = np.random.default_rng(10)
        ref = rng.standard_normal((200, 3))
        tail = rng.standard_normal((100, 3)) + 0.5
        before = kl_divergence(ref, tail)
        ref[:100] += 2.0
        after = kl_divergence(ref, tail)
        assert after != before
        assert after == uncached_kl(ref, tail)

    def test_keyword_arguments_never_share_an_entry(self):
        rng = np.random.default_rng(11)
        ref = rng.standard_normal((200, 2))
        ref[:, 1] = 0.5  # a degenerate component, so that scale_floor takes effect
        tail = rng.standard_normal((100, 2)) + 1.0
        base = kl_divergence(ref, tail, scale_floor=1e-10)
        for kwargs in ({"n_samples": 300, "scale_floor": 1e-10}, {"scale_floor": 1e-3}):
            value = kl_divergence(ref, tail, **kwargs)
            assert value != base
            assert value == uncached_kl(ref, tail, **kwargs)
        assert kl_divergence(ref, tail, scale_floor=1e-10) == base

    @pytest.mark.parametrize("n_samples", [1000, 300])
    def test_row_blocks_match_single_shot(self, lorenz, n_samples):
        ref = lorenz.attractors[0].reference
        center, spread, draws, log_p_ref = uncached_side(ref, n_samples)
        standardized = (ref - center) / spread
        single = _log_mixture_density(draws, standardized)
        assert np.array_equal(_log_mixture_density_blocked(draws, standardized), single)
        assert np.array_equal(log_p_ref, single)

    def test_cached_arrays_are_read_only(self, lorenz):
        ref = lorenz.attractors[1].reference
        kl_divergence(ref, ref[-500:])
        side = _reference_side(ref.tobytes(), ref.shape, 1000, 0.0)
        for array in side:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0


def oracle_log_mixture_density(queries, centers):
    """The unit-bandwidth mixture density as first written, through scipy's logsumexp."""
    d = centers.shape[1]
    sq = (
        np.sum(queries**2, axis=1)[:, None]
        - 2.0 * queries @ centers.T
        + np.sum(centers**2, axis=1)[None, :]
    )
    np.maximum(sq, 0.0, out=sq)
    log_kernel = -sq / 2.0
    log_norm = np.log(centers.shape[0]) + 0.5 * d * np.log(2.0 * np.pi)
    return logsumexp(log_kernel, axis=1) - log_norm


@pytest.fixture(scope="module")
def lorenz_truth_tails(lorenz):
    """Last 500 samples of eight RK4 Lorenz trajectories from the x = 0 plane."""
    starts = np.zeros((8, 3))
    starts[:, 1:] = np.random.default_rng(21).uniform(-20.0, 20.0, size=(8, 2))
    x = rk4_ensemble(lorenz, starts, 0.02, 1500)
    tails = np.ascontiguousarray(x[-500:].transpose(1, 0, 2))
    assert np.isfinite(tails).all()
    return tails


class TestFusedDensity:
    """The in-place density kernel reproduces the scipy-based formula bit for bit."""

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (2, 2), (7, 13),
                                       (128, 500), (1000, 500), (3, 1001)])
    def test_logsumexp_rows_equals_scipy(self, shape):
        """Pins the installed scipy (1.17.1): if scipy changes its logsumexp
        algorithm, this test is the one that should fail."""
        rng = np.random.default_rng(shape[0] * 1009 + shape[1])
        for a in (rng.standard_normal(shape), -rng.exponential(40.0, shape),
                  rng.standard_normal(shape) * 1e3 - 1e300):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert np.array_equal(_logsumexp_rows(a.copy()), logsumexp(a, axis=1))

    def test_logsumexp_rows_edge_rows(self):
        rng = np.random.default_rng(22)
        a = rng.standard_normal((11, 6))
        a[0] = -np.inf
        a[1, 2] = np.inf
        a[2, [1, 4]] = np.inf
        a[3, 3] = np.nan
        a[4, [0, 5]] = [np.nan, np.inf]
        a[5, :3] = 2.5  # a three-way tie at the maximum
        a[6] = 0.25  # the whole row tied
        a[7, 1:] = -np.inf  # one finite entry
        a[8] = -1e308
        a[9] -= 1e300
        a[10, [0, 2]] = [np.inf, -np.inf]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _logsumexp_rows(a.copy())
            expected = logsumexp(a, axis=1)
        assert np.array_equal(got, expected, equal_nan=True)
        assert np.isnan(got[[3, 4]]).all() and got[0] == -np.inf and got[1] == np.inf

    def test_density_on_truth_tails(self, lorenz, lorenz_truth_tails):
        for ref in (a.reference for a in lorenz.attractors):
            center, spread, draws, _ = uncached_side(ref)
            for tail in lorenz_truth_tails:
                test = (tail - center) / spread
                assert np.array_equal(_log_mixture_density(draws, test),
                                      oracle_log_mixture_density(draws, test))

    def test_density_on_far_and_degenerate_clouds(self):
        rng = np.random.default_rng(23)
        queries = rng.standard_normal((1000, 3))
        far = rng.standard_normal((500, 3)) + np.array([80.0, -40.0, 10.0])
        degenerate = np.full((500, 3), 2.0) + 1e-12 * rng.standard_normal((500, 3))
        for centers in (far, degenerate, queries[:500]):
            assert np.array_equal(_log_mixture_density(queries, centers),
                                  oracle_log_mixture_density(queries, centers))
            assert np.array_equal(
                _log_mixture_density_blocked(queries, centers),
                np.concatenate([oracle_log_mixture_density(block, centers)
                                for block in np.array_split(queries, 8)]))

    def test_kl_divergence_unchanged_on_truth_tails(self, lorenz, lorenz_truth_tails,
                                                    monkeypatch):
        refs = [a.reference for a in lorenz.attractors]
        pairs = [(ref, tail) for ref in refs for tail in lorenz_truth_tails[:3]]
        fused = [uncached_kl(ref, tail) for ref, tail in pairs]
        monkeypatch.setattr(classify_mod, "_log_mixture_density",
                            oracle_log_mixture_density)
        # an empty cache makes the oracle score the reference draws too
        assert fused == [uncached_kl(ref, tail) for ref, tail in pairs]


class TestScore:
    def test_all_correct(self):
        outcomes = [BasinOutcome(CORRECT, 0)] * 4
        m = score(outcomes, [0, 0, 0, 0])
        assert m.f_c == 1.0 and m.f_spurious == 0.0

    def test_mixed_counting(self):
        outcomes = [BasinOutcome(CORRECT, 0), BasinOutcome(WRONG, 1),
                    BasinOutcome(SPURIOUS)]
        m = score(outcomes, [0, 0, 1])
        assert m.f_c == pytest.approx(1 / 3)
        assert m.f_spurious == pytest.approx(1 / 3)

    def test_fractions_partition(self):
        rng = np.random.default_rng(8)
        cats = [CORRECT, WRONG, SPURIOUS, UNRESOLVED]
        outcomes, truth = [], []
        for _ in range(200):
            cat = cats[rng.integers(4)]
            basin = int(rng.integers(3))
            truth.append(basin)
            if cat == CORRECT:
                outcomes.append(BasinOutcome(CORRECT, basin))
            elif cat == WRONG:
                outcomes.append(BasinOutcome(WRONG, (basin + 1) % 3))
            else:
                outcomes.append(BasinOutcome(cat))
        m = score(outcomes, truth)
        assert m.f_c + m.f_wrong + m.f_spurious + m.f_unresolved == pytest.approx(1.0)

    def test_per_basin_rates(self):
        outcomes = [BasinOutcome(CORRECT, 0), BasinOutcome(WRONG, 0),
                    BasinOutcome(CORRECT, 1), BasinOutcome(UNRESOLVED)]
        truth = [0, 1, 1, 0]
        m = score(outcomes, truth)
        b0 = m.per_basin[0]
        assert b0.f_c == 0.5 and b0.false_negative_rate == 0.5
        # one prediction of basin 0 among the two cells whose truth differs
        assert b0.false_positive_rate == 0.5

    def test_make_outcome(self):
        assert make_outcome(2, 2).category == CORRECT
        assert make_outcome(1, 2).category == WRONG
        assert make_outcome(SPURIOUS, 0).category == SPURIOUS
        assert make_outcome(UNRESOLVED, 0).category == UNRESOLVED

    def test_outcome_validation(self):
        with pytest.raises(ValueError):
            BasinOutcome(CORRECT)
        with pytest.raises(ValueError):
            BasinOutcome("nonsense")


class TestNearestMagnetBaseline:
    def test_end_at_magnet(self, pendulum):
        for idx, att in enumerate(pendulum.attractors):
            sig = TimeSeries(np.tile(att.location[:2], (5, 1)), 0.02)
            assert nearest_magnet_baseline([sig], pendulum)[0] == idx

    def test_tie_breaks_to_lowest_index(self):
        # exact tie: the duffing attractors mirror each other bitwise, so a
        # signal ending midway is equidistant and the lowest index wins
        sig = TimeSeries(np.zeros((3, 1)), 0.01)
        assert nearest_magnet_baseline([sig], duffing())[0] == 0

    def test_origin_deterministic(self, pendulum):
        # the relaxed pendulum equilibria are symmetric only to rounding, so
        # the origin is not an exact tie; the result must still be stable
        sig = TimeSeries(np.zeros((3, 2)), 0.02)
        first = nearest_magnet_baseline([sig], pendulum)[0]
        assert first in (0, 1, 2)
        assert nearest_magnet_baseline([sig], pendulum)[0] == first

    def test_only_final_sample_matters(self, pendulum):
        rng = np.random.default_rng(9)
        wander = rng.uniform(-1, 1, size=(20, 2))
        end = pendulum.attractors[2].location[:2]
        values = np.vstack([wander, end])
        a = nearest_magnet_baseline([TimeSeries(values, 0.02)], pendulum)[0]
        permuted = np.vstack([wander[::-1], end])
        b = nearest_magnet_baseline([TimeSeries(permuted, 0.02)], pendulum)[0]
        assert a == b == 2

    def test_rejects_chaotic(self):
        with pytest.raises(ValueError):
            nearest_magnet_baseline([TimeSeries(np.zeros((2, 3)), 0.02)],
                                    multistable_lorenz())


class TestNearestAttractor:
    def test_batch_equals_per_signal_baseline(self, pendulum):
        ends = np.random.default_rng(12).uniform(-1.5, 1.5, size=(200, 2))
        locations = pendulum.attractor_locations((0, 1))
        batch = nearest_attractor(ends, pendulum, (0, 1))
        singles = [nearest_magnet_baseline([TimeSeries(e[None, :], 0.02)], pendulum)[0]
                   for e in ends]
        # reference: a per-signal argmin of norms; random ends have no ties
        norms = [np.argmin(np.linalg.norm(locations - e, axis=1)) for e in ends]
        assert batch.tolist() == singles == norms
        assert set(batch.tolist()) == {0, 1, 2}

    def test_components_pick_location_axes(self, pendulum):
        # observing only y: the end is compared with each magnet's y coordinate
        locations = pendulum.attractor_locations((1,))
        ends = locations + 1e-3
        assert nearest_attractor(ends, pendulum, (1,)).tolist() == [0, 1, 2]

    def test_rejects_chaotic(self, lorenz):
        with pytest.raises(ValueError):
            nearest_attractor(np.zeros((2, 3)), lorenz, (0, 1, 2))


def parent_classify_fixed_point(values, sys, crit, full_state=False, components=None):
    """The per-trajectory fixed-point classifier before batching, on the
    C-ordered (n, d) values of one TimeSeries; the reference for the block
    form."""
    if components is None:
        components = tuple(range(values.shape[1]))
    locations = sys.attractor_locations(components)
    tail = values[-crit.tail_len:]
    if not np.all(np.isfinite(tail)):
        return UNRESOLVED
    end = values[-1]
    candidate = int(np.argmin(np.linalg.norm(locations - end, axis=1)))
    use_energy = (full_state and sys.energy is not None
                  and crit.energy_barrier is not None
                  and values.shape[1] == sys.dim)
    if use_energy:
        converged = bool(sys.energy(end) < crit.energy_barrier)
    else:
        converged = bool(
            np.all(np.linalg.norm(tail - locations[candidate], axis=1) <= crit.eps_c))
    if converged:
        return candidate
    center = tail.mean(axis=0)
    settled = np.all(np.linalg.norm(tail - center, axis=1) <= crit.eps_c)
    far_from_all = np.all(np.linalg.norm(locations - center, axis=1) > crit.eps_c)
    if settled and far_from_all:
        return SPURIOUS
    return UNRESOLVED


def random_tails(sys, width, rng, m=240, n=40):
    """Rows that sit near an attractor, settle elsewhere, or wander, in the
    leading ``width`` components, at several noise levels."""
    locations = sys.attractor_locations(range(width))
    near = rng.integers(0, 3, m) == 0
    centers = np.where(near[:, None], locations[rng.integers(0, len(locations), m)],
                       rng.uniform(-3.0, 3.0, (m, width)))
    spread = rng.choice([0.01, 0.05, 0.2, 0.6, 3.0], m)
    return centers[:, None, :] + spread[:, None, None] * rng.standard_normal((m, n, width))


def read_only_layouts(x):
    """``x`` as read-only C-ordered, F-ordered and strided blocks."""
    blocks = (x.copy(), np.asfortranarray(x), np.repeat(x, 2, axis=2)[:, :, ::2])
    for block in blocks:
        block.flags.writeable = False
    return blocks


@pytest.fixture(scope="module")
def fixed_point_systems(pendulum):
    return {"duffing": (duffing(), DUFFING_CRIT),
            "multi_well": (multi_well(), ConvergenceCriteria(eps_c=0.25)),
            "magnetic_pendulum": (pendulum, ConvergenceCriteria(eps_c=0.25))}


class TestBatchedClassifiers:
    """An (m, n, d) block gets the labels of its rows classified one at a time."""

    @pytest.mark.parametrize("name, width", [
        ("duffing", 1), ("duffing", 2), ("multi_well", 1), ("multi_well", 2),
        ("magnetic_pendulum", 1), ("magnetic_pendulum", 2), ("magnetic_pendulum", 4)])
    def test_fixed_point_block_equals_rows(self, fixed_point_systems, name, width):
        sys, crit = fixed_point_systems[name]
        x = random_tails(sys, width, np.random.default_rng(width))
        rows = [TimeSeries(row, 0.01) for row in x]
        means = np.array([r.values[-crit.tail_len:].mean(axis=0) for r in rows])
        for full_state in (False, True):
            expected = [parent_classify_fixed_point(r.values, sys, crit, full_state)
                        for r in rows]
            assert {SPURIOUS, UNRESOLVED} < set(expected)
            assert [classify_fixed_point(r, sys, crit, full_state=full_state)
                    for r in rows] == expected
            for block in read_only_layouts(x):
                # tail means carry the bits of the per-row means in every layout
                tails, _ = _tail_block(block, crit.tail_len)
                assert np.array_equal(tails.mean(axis=1).view(np.uint64),
                                      means.view(np.uint64))
                assert classify_fixed_point(block, sys, crit,
                                            full_state=full_state) == expected

    def test_non_finite_rows_unresolved_quietly(self):
        sys = duffing()
        x = np.tile([np.sqrt(10), 0.0], (7, 40, 1))
        x[1, -1, 0] = np.nan
        x[2, 30, 1] = np.inf
        x[3, -25, 0] = -np.inf
        x[4] = np.nan
        x[5, 3] = np.nan  # before the tail, which alone is classified
        x[6, -2:] = [np.inf, -np.inf]
        expected = [1, UNRESOLVED, UNRESOLVED, UNRESOLVED, UNRESOLVED, 1, UNRESOLVED]
        x_only = [1, UNRESOLVED, 1, UNRESOLVED, UNRESOLVED, 1, UNRESOLVED]
        for block in (x, np.asfortranarray(x), x[:, :, ::-1][:, :, ::-1]):
            before = block.copy()
            with np.errstate(all="raise"), warnings.catch_warnings():
                warnings.simplefilter("error")
                for full_state in (False, True):
                    assert classify_fixed_point(block, sys, DUFFING_CRIT,
                                                full_state=full_state) == expected
                    assert classify_fixed_point(block[:, :, :1], sys, DUFFING_CRIT,
                                                components=(0,)) == x_only
            assert np.array_equal(block, before, equal_nan=True)

    def test_chaotic_block_equals_tails(self, lorenz):
        rng = np.random.default_rng(13)
        # read-only strided windows of each lobe's reference trajectory
        lobes = [np.lib.stride_tricks.sliding_window_view(a.reference, 500, axis=0)
                 [::1500].transpose(0, 2, 1) for a in lorenz.attractors]
        far = rng.standard_normal((1, 500, 3)) + 50.0
        x = np.concatenate(lobes + [far, lobes[0][:2], lobes[1][:1]])
        x[-3, 17, 2] = np.nan
        x[-2, -1, 0] = np.inf
        x[-1, 250] = -np.inf
        expected = [classify_chaotic(TimeSeries(row, 0.02), lorenz.attractors, LORENZ_CRIT)
                    for row in x[:-3]] + [UNRESOLVED] * 3
        assert expected[:-3] == [0] * len(lobes[0]) + [1] * len(lobes[1]) + [UNRESOLVED]
        for lobe, label in zip(lobes, (0, 1)):
            assert classify_chaotic(lobe, lorenz.attractors, LORENZ_CRIT) == [label] * len(lobe)
        for block in (x, np.asfortranarray(x)):
            before = block.copy()
            with np.errstate(all="raise"):
                assert classify_chaotic(block, lorenz.attractors, LORENZ_CRIT) == expected
            assert np.array_equal(block, before, equal_nan=True)

    def test_block_shape_checked(self):
        sys = duffing()
        with pytest.raises(DimensionMismatchError):
            classify_fixed_point(np.zeros((30, 2)), sys, DUFFING_CRIT)
        with pytest.raises(ValueError):
            classify_fixed_point(np.zeros((3, 10, 2)), sys, DUFFING_CRIT)
