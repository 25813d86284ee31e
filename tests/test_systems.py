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
    magnetic_pendulum,
    make_system,
    multi_well,
    multistable_lorenz,
    rk4_ensemble,
    system_parameters,
)
from rcbasin.systems import _PEND_MAGNETS


def linear_decay(dim=1):
    return SystemDef(name="decay", dim=dim,
                     vector_field=lambda s: -np.asarray(s, dtype=float),
                     attractors=())


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
        assert np.allclose(sys.vector_field(np.zeros(2)), [0.0, 0.0])
        assert np.linalg.eigvals(numeric_jacobian(sys, np.zeros(2))).real.max() > 0


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
        offsets = np.linalg.norm(locs - _PEND_MAGNETS, axis=1)
        assert np.all(offsets > 1e-3) and np.all(offsets < 0.05)


class TestPendulumEquilibria:
    """Root-solved rest points against those of the RK4 relaxation they replace."""

    #: Rest points relaxed with RK4 (dt 0.02) until every field norm was at
    #: or below 1e-10.
    RELAXED = np.array([[float.fromhex(v) for v in row] for row in (
        ("0x1.202599bd4874ap-1", "0x0.0p+0", "0x1.9980a627fbeedp-34", "0x0.0p+0"),
        ("-0x1.202599bd48749p-2", "-0x1.f315c49b3f088p-2",
         "-0x1.997c81fd9a74bp-35", "-0x1.62a0561f192a3p-34"),
        ("-0x1.202599bd48743p-2", "0x1.f315c49b3f08bp-2",
         "-0x1.9980953f9ce04p-35", "0x1.62a158460077fp-34"),
    )])

    def test_within_relaxation_tolerance_of_relaxed(self):
        locs = magnetic_pendulum().attractor_locations()
        assert np.abs(locs - self.RELAXED).max() <= 1e-10

    def test_field_vanishes(self):
        sys = magnetic_pendulum()
        norms = np.linalg.norm(sys.vector_field(sys.attractor_locations()), axis=1)
        assert np.all(norms <= 1e-13)

    def test_velocities_exactly_zero(self):
        locs = magnetic_pendulum().attractor_locations()
        assert np.all(locs[:, 2:] == 0.0)

    def test_repeatable(self):
        first = magnetic_pendulum().attractor_locations()
        second = magnetic_pendulum().attractor_locations()
        assert np.array_equal(first.view(np.uint64), second.view(np.uint64))


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
        magnets = _PEND_MAGNETS
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
                        attractors=())
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
                         attractors=())
        with pytest.raises(NonFiniteError):
            integrate_rk4(grow, np.array([10.0]), 1.0, 100)


class TestAdaptive:
    def test_holds_at_equilibrium(self):
        sys = magnetic_pendulum()
        eq = sys.attractors[0].location
        traj = integrate_adaptive(sys, eq, t_end=40.0, sample_dt=0.02)
        assert np.abs(traj.values - eq).max() < 1e-8

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
                         attractors=())
        with pytest.raises(StepSizeUnderflowError):
            integrate_adaptive(blow, np.array([1.0]), t_end=2.0, sample_dt=0.1)


def blow_up():
    """dx/dt = x**2: finite-time blow-up at t = 1 / x0 for x0 > 0."""
    return SystemDef(name="blow", dim=1,
                     vector_field=lambda s: np.asarray(s, float) ** 2,
                     attractors=())


def pendulum_plane(coords):
    starts = np.zeros((len(coords), 4))
    starts[:, :2] = coords
    return starts


class TestLockstepDop853:
    """Every row of a batch equals its own solve_ivp(DOP853) call bit for bit."""

    @staticmethod
    def assert_rows_match_scipy(sys, starts, t_end, rel_tol, abs_tol, sample_dt):
        from scipy.integrate import solve_ivp

        result = integrate_adaptive(sys, starts, t_end=t_end, rel_tol=rel_tol,
                                    abs_tol=abs_tol, sample_dt=sample_dt)
        t_eval = sample_dt * np.arange(int(round(t_end / sample_dt)) + 1)
        assert result.values.shape == (len(t_eval),) + np.shape(starts)
        assert result.n_samples == len(t_eval)
        reached = []
        for i, start in enumerate(starts):
            sol = solve_ivp(lambda t, s: sys.vector_field(s), (0.0, t_eval[-1]), start,
                            method="DOP853", t_eval=t_eval, rtol=rel_tol, atol=abs_tol)
            k = sol.y.shape[1]
            assert result.failed[i] == (not sol.success)
            assert result.values[:k, i].tobytes() == sol.y.T.tobytes()
            assert np.isnan(result.values[k:, i]).all()
            reached.append(k)
        return result, reached

    def test_pendulum_workload_grid(self):
        ticks = np.linspace(-1.5, 1.5, 5)
        grid = pendulum_plane(np.array([(a, b) for a in ticks for b in ticks]))
        self.assert_rows_match_scipy(magnetic_pendulum(), grid, 1999 * 0.02,
                                     1e-6, 1e-8, 0.02)

    def test_pendulum_rejection_candidates(self):
        coords = np.random.default_rng(1).uniform(-1.5, 1.5, size=(32, 2))
        self.assert_rows_match_scipy(magnetic_pendulum(), pendulum_plane(coords),
                                     40.0, 1e-6, 1e-8, 0.02)

    def test_pendulum_equilibria_and_magnet_neighbourhoods(self):
        sys = magnetic_pendulum()
        rng = np.random.default_rng(3)
        magnets = _PEND_MAGNETS
        near = pendulum_plane(np.repeat(magnets, 2, axis=0)
                              + rng.uniform(-1e-3, 1e-3, size=(6, 2)))
        starts = np.vstack([sys.attractor_locations(), near])
        self.assert_rows_match_scipy(sys, starts, 40.0, 1e-6, 1e-8, 0.02)

    def test_pendulum_tight_tolerances(self):
        coords = np.random.default_rng(4).uniform(-1.5, 1.5, size=(8, 2))
        self.assert_rows_match_scipy(magnetic_pendulum(), pendulum_plane(coords),
                                     40.0, 1e-10, 1e-12, 0.02)

    def test_duffing(self):
        starts = np.random.default_rng(5).uniform(-10.0, 10.0, size=(16, 2))
        self.assert_rows_match_scipy(duffing(), starts, 20.0, 1e-10, 1e-12, 0.01)

    def test_sample_interval_not_dividing_steps(self):
        coords = np.random.default_rng(6).uniform(-1.5, 1.5, size=(6, 2))
        self.assert_rows_match_scipy(magnetic_pendulum(), pendulum_plane(coords),
                                     10.0, 1e-6, 1e-8, 0.0173)

    def test_blow_up_row_fails_alone(self):
        starts = np.array([[1.0], [-1.0], [0.1], [0.3]])
        result, reached = self.assert_rows_match_scipy(blow_up(), starts, 2.0,
                                                       1e-10, 1e-12, 0.1)
        assert result.failed.tolist() == [True, False, False, False]
        assert reached == [11, 21, 21, 21]
        alone = integrate_adaptive(blow_up(), starts[1:], t_end=2.0, sample_dt=0.1)
        assert alone.values.tobytes() == result.values[:, 1:].tobytes()

    def test_single_form_is_batch_row(self):
        sys = magnetic_pendulum()
        starts = pendulum_plane(np.random.default_rng(7).uniform(-1.5, 1.5, size=(3, 2)))
        batch = integrate_adaptive(sys, starts, t_end=10.0, rel_tol=1e-6, abs_tol=1e-8)
        for i, start in enumerate(starts):
            single = integrate_adaptive(sys, start, t_end=10.0, rel_tol=1e-6,
                                        abs_tol=1e-8)
            assert single.values.tobytes() == batch.values[:, i].tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_start_raises(self, bad):
        from scipy.integrate import solve_ivp

        start = np.array([0.3, bad, 0.0, 0.0])
        with pytest.raises(ValueError):
            solve_ivp(lambda t, s: s, (0.0, 1.0), start, method="DOP853")
        for starts in (start, np.vstack([np.zeros(4), start])):
            with pytest.raises(ValueError, match="finite"):
                integrate_adaptive(magnetic_pendulum(), starts, t_end=1.0)


class TestEnsembleWidthInvariance:
    """A row's trajectory does not depend on how many rows share its ensemble.

    Rejection sampling sizes its blocks from the remaining need and relies on
    this to accept the same signals for any block widths.
    """

    @staticmethod
    def starts(sys, half_width, n=513):
        rng = np.random.default_rng(11)
        starts = rng.uniform(-half_width, half_width, size=(n, sys.dim))
        starts[::50] *= 1e100  # far rows; all but the pendulum's overflow
        return starts

    @pytest.mark.parametrize("sys, half_width, dt", [
        (duffing(), 10.0, 0.01),
        (multi_well(), 4.0, 0.01),
        (magnetic_pendulum(), 1.5, 0.02),
        (multistable_lorenz(), 20.0, 0.02),
    ], ids=["duffing", "multi_well", "magnetic_pendulum", "multistable_lorenz"])
    def test_rk4_rows(self, sys, half_width, dt):
        starts = self.starts(sys, half_width)
        whole = rk4_ensemble(sys, starts, dt, 60)
        for width in (1, 7, 32, 200):
            for lo in (0, len(starts) - width):
                part = rk4_ensemble(sys, starts[lo:lo + width], dt, 60)
                assert part.tobytes() == whole[:, lo:lo + width].tobytes(), (width, lo)

    def test_dop853_pendulum_rows(self):
        sys = magnetic_pendulum()
        starts = pendulum_plane(np.random.default_rng(12).uniform(-1.5, 1.5, size=(100, 2)))
        kwargs = dict(t_end=10.0, rel_tol=1e-6, abs_tol=1e-8, sample_dt=0.02)
        whole = integrate_adaptive(sys, starts, **kwargs)
        for lo in range(0, len(starts), 32):
            part = integrate_adaptive(sys, starts[lo:lo + 32], **kwargs)
            assert part.values.tobytes() == whole.values[:, lo:lo + 32].tobytes()
            assert part.failed.tolist() == whole.failed[lo:lo + 32].tolist()


class TestMakeSystem:
    def test_by_name(self):
        forced = make_system("duffing", f0=1.0).attractor_locations()
        assert np.array_equal(forced, duffing(f0=1.0).attractor_locations())
        assert not np.allclose(forced, duffing().attractor_locations())
        assert make_system("multi_well").name == "multi_well"

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_system("lorenz96")

    def test_unknown_parameter_named(self):
        assert system_parameters("duffing") == ("f0",)
        for name in ("duffing", "multistable_lorenz"):
            with pytest.raises(ValueError, match="'f_0'"):
                make_system(name, f_0=0.3)

    def test_attractor_kinds(self):
        assert all(a.kind == FIXED_POINT for a in magnetic_pendulum().attractors)
        assert all(a.kind == CHAOTIC for a in multistable_lorenz().attractors)

    def test_chaotic_flag(self):
        assert multistable_lorenz().chaotic
        assert not any(s.chaotic for s in (duffing(), multi_well(), linear_decay()))
