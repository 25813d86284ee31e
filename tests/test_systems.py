import numpy as np
import pytest
import sympy

from rcbasin.errors import NonFiniteError
from rcbasin.systems import (
    CHAOTIC,
    FIXED_POINT,
    SystemDef,
    duffing,
    integrate_adaptive,
    integrate_rk4,
    integrate_with_process_noise,
    magnet_distances,
    magnetic_pendulum,
    make_system,
    multi_well,
    multistable_lorenz,
    rk4_ensemble,
)


def linear_decay(dim=1):
    return SystemDef(name="decay", dim=dim,
                     vector_field=lambda s: -np.asarray(s, dtype=float),
                     params={}, attractors=())


def numeric_jacobian(sys, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    jac = np.empty((sys.dim, sys.dim))
    for j in range(sys.dim):
        step = np.zeros(sys.dim)
        step[j] = h
        jac[:, j] = (sys.vector_field(x + step) - sys.vector_field(x - step)) / (2 * h)
    return jac


def assert_attracting_equilibria(sys):
    for att in sys.attractors:
        assert np.linalg.norm(sys.vector_field(att.location)) <= 1e-9
        eigs = np.linalg.eigvals(numeric_jacobian(sys, att.location))
        assert np.all(eigs.real < 0)


class TestDuffing:
    def test_unforced_attractors(self):
        sys = duffing()
        locs = sys.attractor_locations()
        assert locs[:, 0] == pytest.approx([-np.sqrt(10), np.sqrt(10)], abs=1e-9)
        assert locs[:, 1] == pytest.approx([0.0, 0.0], abs=1e-12)
        assert_attracting_equilibria(sys)

    def test_forced_attractors(self):
        sys = duffing(f0=1.0)
        locs = sys.attractor_locations()
        assert locs[0, 0] == pytest.approx(-2.42, abs=0.01)
        assert locs[1, 0] == pytest.approx(3.58, abs=0.01)
        assert_attracting_equilibria(sys)

    def test_energy_below_barrier_at_attractor(self):
        sys = duffing()
        # E(sqrt(10), 0) = -5 + 2.5, below the origin's level 0
        assert sys.energy(np.array([np.sqrt(10), 0.0])) == pytest.approx(-2.5)
        assert sys.energy(np.zeros(2)) == pytest.approx(0.0)

    def test_energy_nonincreasing_along_rk4(self):
        sys = duffing()
        traj = integrate_rk4(sys, np.array([5.0, 5.0]), 0.01, 2000)
        energy = sys.energy(traj.values)
        assert np.max(np.diff(energy)) <= 1e-12

    def test_unstable_point(self):
        sys = duffing()
        assert np.allclose(sys.unstable_points[0], [0.0, 0.0])


class TestMultiWell:
    def test_corners_are_equilibria(self):
        sys = multi_well()
        assert np.allclose(sys.vector_field(np.array([1.0, 1.0])), [0.0, 0.0])
        assert_attracting_equilibria(sys)

    def test_vector_field_value(self):
        sys = multi_well()
        assert np.allclose(sys.vector_field(np.array([2.0, 0.0])), [-3.0, 0.0])

    def test_sign_quadrant_is_truth(self):
        # decoupled flows: trajectory from (0.3, -2) must reach (+1, -1)
        sys = multi_well()
        traj = integrate_rk4(sys, np.array([0.3, -2.0]), 0.01, 3000)
        assert traj.values[-1] == pytest.approx([1.0, -1.0], abs=1e-6)


class TestMagneticPendulum:
    def test_distance_at_magnet_equals_height(self):
        sys = magnetic_pendulum()
        for mx, my in sys.params["magnets"]:
            d = magnet_distances(mx, my)
            assert d.min() == pytest.approx(0.2, abs=1e-15)

    def test_equilibria_are_zeros_of_field(self):
        assert_attracting_equilibria(magnetic_pendulum())

    def test_equilibria_rotation_symmetry(self):
        sys = magnetic_pendulum()
        locs = sys.attractor_locations((0, 1))
        angle = 2 * np.pi / 3
        rot = np.array([[np.cos(angle), -np.sin(angle)],
                        [np.sin(angle), np.cos(angle)]])
        assert np.abs(rot @ locs[0] - locs[2]).max() < 1e-8
        assert np.abs(rot @ locs[2] - locs[1]).max() < 1e-8

    def test_equilibria_near_but_not_at_magnets(self):
        sys = magnetic_pendulum()
        locs = sys.attractor_locations((0, 1))
        offsets = np.linalg.norm(locs - sys.params["magnets"], axis=1)
        assert np.all(offsets > 1e-3) and np.all(offsets < 0.05)


class TestPendulumFieldPaths:
    """A single state takes its own path; it must equal the batched one bit for bit."""

    @staticmethod
    def assert_rows_match(states):
        field = magnetic_pendulum().vector_field
        states = np.ascontiguousarray(states, dtype=float)
        with np.errstate(all="ignore"):
            whole = field(states)
            rows = np.array([field(state) for state in states])
        assert whole.shape == rows.shape == states.shape
        assert np.array_equal(rows.view(np.uint64), whole.view(np.uint64))

    def test_random_states(self):
        rng = np.random.default_rng(0)
        self.assert_rows_match(rng.uniform(-2.0, 2.0, size=(10_000, 4)))

    def test_states_near_each_magnet(self):
        rng = np.random.default_rng(1)
        magnets = magnetic_pendulum().params["magnets"]
        blocks = []
        for mx, my in magnets:
            near = rng.uniform(-1e-3, 1e-3, size=(500, 4))
            near[:, 0] += mx
            near[:, 1] += my
            blocks += [near, [[mx, my, 0.0, 0.0]]]
        self.assert_rows_match(np.vstack(blocks))

    def test_equilibria(self):
        self.assert_rows_match(magnetic_pendulum().attractor_locations())

    def test_large_velocities_and_positions(self):
        rng = np.random.default_rng(2)
        states = rng.uniform(-2.0, 2.0, size=(600, 4))
        states[:200, 2:] *= 10.0 ** rng.integers(3, 300, size=(200, 2))
        states[200:400, :2] *= 10.0 ** rng.integers(3, 300, size=(200, 2))
        states[400:] *= 10.0 ** rng.integers(3, 300, size=(200, 1))
        self.assert_rows_match(states)

    def test_non_finite_rows(self):
        values = (np.nan, np.inf, -np.inf, 0.0, 0.3)
        rows = [[a, b, c, d] for a in values for b in values
                for c in values[:3] for d in values[2:]]
        self.assert_rows_match(rows)

    def test_single_state_result_is_fresh(self):
        field = magnetic_pendulum().vector_field
        state = np.array([0.3, -0.2, 0.1, 0.4])
        out = field(state)
        assert out.shape == (4,) and out.dtype == np.float64
        assert out.flags.writeable and not np.shares_memory(out, state)
        expected = out.copy()
        out[:] = 0.0
        assert np.array_equal(field(state), expected)
        assert np.array_equal(field([0.3, -0.2, 0.1, 0.4]), expected)
        assert np.array_equal(field([0, 0, 0, 0]), field(np.zeros(4)))


class TestMultistableLorenz:
    def test_field_at_origin(self):
        sys = multistable_lorenz()
        assert np.allclose(sys.vector_field(np.zeros(3)), [18.1, 0.0, 0.0])

    def test_x_coefficient_sign_symbolic(self):
        a, b = sympy.Rational(-10), sympy.Rational(-4)
        coefficient = -(a * b) / (a + b)
        assert coefficient == sympy.Rational(20, 7)
        sys = multistable_lorenz()
        probe = sys.vector_field(np.array([1.0, 0.0, 0.0]))
        assert probe[0] == pytest.approx(float(coefficient) + 18.1, abs=1e-12)

    def test_two_distinct_lobes(self):
        # the (y, z) -> (-y, -z) symmetry maps the lobes onto each other;
        # z keeps one sign per lobe, so sign of mean z separates them
        sys = multistable_lorenz()
        upper, lower = (a.reference for a in sys.attractors)
        assert np.all(upper[:, 2] > 0)
        assert np.all(lower[:, 2] < 0)
        assert np.mean(upper[:, 2]) > 1.0 and np.mean(lower[:, 2]) < -1.0

    def test_symmetric_seeds_settle_on_lobes(self):
        sys = multistable_lorenz()
        for seed_state, sign in (((0.0, 1.0, 1.0), 1.0), ((0.0, -1.0, -1.0), -1.0)):
            traj = integrate_rk4(sys, np.array(seed_state), 0.02, 4000)
            assert np.sign(np.mean(traj.values[2000:, 2])) == sign

    def test_reference_length(self):
        sys = multistable_lorenz()
        for att in sys.attractors:
            assert att.kind == CHAOTIC
            assert att.reference.shape[0] >= 500

    def test_references_equal_serial_integrations(self):
        # the two-member ensemble reproduces one integrate_rk4 run per seed
        sys = multistable_lorenz()
        for att, z0 in zip(sys.attractors, (1.0, -1.0)):
            serial = integrate_rk4(sys, np.array([0.0, 1.0, z0]), 0.02, 10_000).values
            assert att.reference.shape == (5001, 3)
            assert np.array_equal(att.reference, serial[5000:])
            assert not att.reference.flags.writeable


class TestRk4:
    def test_zero_field_constant(self):
        sys = SystemDef(name="still", dim=2,
                        vector_field=lambda s: np.zeros_like(np.asarray(s, float)),
                        params={}, attractors=())
        traj = integrate_rk4(sys, np.array([1.0, -2.0]), 0.1, 50)
        assert np.array_equal(traj.values, np.tile([1.0, -2.0], (51, 1)))

    def test_one_step_matches_exponential(self):
        traj = integrate_rk4(linear_decay(), np.array([1.0]), 0.01, 1)
        assert traj.values[1, 0] == pytest.approx(np.exp(-0.01), abs=1e-10)

    def test_order_four_scaling(self):
        # global error at t = 1 drops 16x per halving, within a factor of 2
        errors = {}
        for dt in (0.02, 0.01, 0.005):
            traj = integrate_rk4(linear_decay(), np.array([1.0]), dt, round(1 / dt))
            errors[dt] = abs(traj.values[-1, 0] - np.exp(-1.0))
        for coarse, fine in ((0.02, 0.01), (0.01, 0.005)):
            ratio = errors[coarse] / errors[fine]
            assert 8.0 <= ratio <= 32.0

    def test_ensemble_matches_single(self):
        sys = duffing()
        ics = np.array([[5.0, 5.0], [-1.0, 2.0]])
        ens = rk4_ensemble(sys, ics, 0.01, 100)
        for k, ic in enumerate(ics):
            single = integrate_rk4(sys, ic, 0.01, 100)
            assert np.array_equal(ens[:, k, :], single.values)

    def test_overflow_raises(self):
        grow = SystemDef(name="blow", dim=1,
                         vector_field=lambda s: np.asarray(s, float) ** 2,
                         params={}, attractors=())
        with pytest.raises(NonFiniteError):
            integrate_rk4(grow, np.array([10.0]), 1.0, 100)


class TestAdaptive:
    def test_holds_at_equilibrium(self):
        sys = magnetic_pendulum()
        eq = sys.attractors[0].location
        traj = integrate_adaptive(sys, eq, t_end=40.0, sample_dt=0.02)
        assert np.abs(traj.values - eq).max() < 1e-8

    def test_matches_fine_rk4(self):
        sys = magnetic_pendulum()
        ic = np.array([0.8, -0.3, 0.0, 0.0])
        fine = rk4_ensemble(sys, ic, 1e-4, 100_000)[::200, 0, :]
        adaptive = integrate_adaptive(sys, ic, t_end=10.0, sample_dt=0.02)
        assert np.abs(adaptive.values - fine).max() <= 1e-6

    def test_tolerance_monotone_trend(self):
        sys = magnetic_pendulum()
        ic = np.array([0.8, -0.3, 0.0, 0.0])
        reference = rk4_ensemble(sys, ic, 1e-4, 50_000)[-1, 0, :]
        errs = []
        for rel in (1e-6, 1e-9):
            traj = integrate_adaptive(sys, ic, t_end=5.0, rel_tol=rel,
                                      abs_tol=rel * 1e-2, sample_dt=0.02)
            errs.append(np.abs(traj.values[-1] - reference).max())
        assert errs[1] < errs[0]

    def test_sampling_grid(self):
        traj = integrate_adaptive(linear_decay(), np.array([1.0]), t_end=1.0,
                                  sample_dt=0.25)
        assert traj.n_samples == 5
        assert traj.dt == 0.25

    def test_step_size_underflow(self):
        from rcbasin.errors import StepSizeUnderflowError

        # finite-time blow-up forces the step size below resolvable spacing
        blow = SystemDef(name="blow", dim=1,
                         vector_field=lambda s: np.asarray(s, float) ** 2,
                         params={}, attractors=())
        with pytest.raises(StepSizeUnderflowError):
            integrate_adaptive(blow, np.array([1.0]), t_end=2.0, sample_dt=0.1)


class TestProcessNoise:
    def test_zero_noise_is_euler(self):
        sys = linear_decay()
        traj = integrate_with_process_noise(sys, np.array([1.0]), 0.01, 100,
                                            eta_p=0.0, seed=0)
        euler = 1.0 * (1 - 0.01) ** np.arange(101)
        assert traj.values[:, 0] == pytest.approx(euler, rel=1e-12)
        rk4 = integrate_rk4(sys, np.array([1.0]), 0.01, 100)
        assert np.abs(traj.values - rk4.values).max() < 0.01

    def test_seeded_repeat_identical(self):
        sys = linear_decay()
        a = integrate_with_process_noise(sys, np.array([1.0]), 0.01, 200, 0.3, seed=7)
        b = integrate_with_process_noise(sys, np.array([1.0]), 0.01, 200, 0.3, seed=7)
        assert np.array_equal(a.values, b.values)

    def test_ou_stationary_variance(self):
        # 10^4 decoupled copies of x' = -x driven by the same noise law form
        # an ensemble; stationary variance approaches eta_p^2 / 2
        m = 10_000
        sys = linear_decay(dim=m)
        eta_p = 0.5
        traj = integrate_with_process_noise(sys, np.zeros(m), 0.01, 1500,
                                            eta_p=eta_p, seed=3)
        var = np.var(traj.values[-1])
        assert var == pytest.approx(eta_p**2 / 2, rel=0.10)


class TestMakeSystem:
    def test_by_name(self):
        assert make_system("duffing", f0=1.0).params["f0"] == 1.0
        assert make_system("multi_well").name == "multi_well"

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_system("lorenz96")

    def test_attractor_kinds(self):
        assert all(a.kind == FIXED_POINT for a in magnetic_pendulum().attractors)
        assert all(a.kind == CHAOTIC for a in multistable_lorenz().attractors)
