import math

import numpy as np
import pytest
from scipy import integrate as sp_integrate

from riccatikit import finitegap as fg
from riccatikit import numeric
from riccatikit import riccati as rc


class TestIntegrateIvp:
    def test_exponential(self):
        traj = numeric.integrate_ivp(lambda x, y: np.array([y[1], y[0]]), 0.0, [1.0, 1.0], 1.0, tol=1e-10)
        assert traj.ys[-1][0] == pytest.approx(math.e, rel=1e-9)

    def test_sine_half_period(self):
        traj = numeric.integrate_ivp(lambda x, y: np.array([y[1], -y[0]]), 0.0, [0.0, 1.0], math.pi, tol=1e-10)
        assert abs(traj.ys[-1][0]) <= 1e-8

    def test_blow_up_location(self):
        with pytest.raises(numeric.IntegrationBlowUp) as err:
            numeric.integrate_ivp(lambda x, y: np.array([y[0] ** 2]), 0.0, [1.0], 2.0, tol=1e-10)
        assert err.value.x == pytest.approx(1.0, abs=0.05)

    def test_against_scipy_on_nonautonomous_system(self):
        def rhs(x, y):
            return np.array([y[1], -(1 + 0.3 * np.sin(x)) * y[0]])

        mine = numeric.integrate_ivp(rhs, 0.0, [1.0, 0.0], 6.0, tol=1e-12)
        ref = sp_integrate.solve_ivp(rhs, (0.0, 6.0), [1.0, 0.0], rtol=1e-12, atol=1e-12)
        assert mine.ys[-1] == pytest.approx(ref.y[:, -1], abs=1e-9)

    def test_dense_output_accuracy(self):
        traj = numeric.integrate_ivp(lambda x, y: np.array([y[1], -y[0]]), 0.0, [0.0, 1.0], 6.0, tol=1e-12)
        xs = np.linspace(0.3, 5.7, 40)
        vals = traj(xs)[:, 0]
        assert np.max(np.abs(vals - np.sin(xs))) <= 1e-9

    def test_backward_integration(self):
        traj = numeric.integrate_ivp(lambda x, y: np.array([y[0]]), 0.0, [1.0], -1.0, tol=1e-12)
        assert traj.ys[-1][0] == pytest.approx(math.exp(-1), rel=1e-10)

    def test_fixed_step_is_deterministic(self):
        runs = [
            numeric.integrate_ivp(lambda x, y: np.array([y[1], -y[0]]), 0.0, [0.0, 1.0], 3.0, fixed_step=0.01)
            for _ in range(2)
        ]
        assert np.array_equal(runs[0].ys, runs[1].ys)

    def test_wronskian_constancy_for_pure_second_order(self):
        def rhs(x, y):
            c = x * x + 1.0
            return np.array([y[1], c * y[0], y[3], c * y[2]])

        traj = numeric.integrate_ivp(rhs, 0.0, [1.0, 0.0, 0.0, 1.0], 2.5, tol=1e-12)
        xs = np.linspace(0.0, 2.5, 60)
        states = traj(xs)
        w = states[:, 0] * states[:, 3] - states[:, 2] * states[:, 1]
        assert np.max(np.abs(w - w[0])) <= 1e-8 * abs(w[0])

    def test_wronskian_moves_with_first_derivative_term(self):
        # psi'' = psi' has solutions 1 and e^x: the Wronskian grows like e^x
        def rhs(x, y):
            return np.array([y[1], y[1], y[3], y[3]])

        traj = numeric.integrate_ivp(rhs, 0.0, [1.0, 0.0, 0.0, 1.0], 2.0, tol=1e-12)
        w0 = 1.0
        wend = traj.ys[-1][0] * traj.ys[-1][3] - traj.ys[-1][2] * traj.ys[-1][1]
        assert abs(wend - w0) > 0.5


    def test_non_finite_stage_halves_the_step(self):
        # a NaN slope past x = 0.5 must stop the integrator there, never leak into the state
        def rhs(x, y):
            return np.array([math.nan if x > 0.5 else 1.0])

        with pytest.raises(numeric.IntegrationBlowUp) as err:
            numeric.integrate_ivp(rhs, 0.0, [0.0], 1.0)
        assert err.value.x == pytest.approx(0.5, abs=1e-12)
        assert np.all(np.isfinite(err.value.trajectory.ys))

    def test_huge_finite_stage_halves_the_step_before_the_rhs_sees_it(self):
        # a slope of 1e120 past x = 0.5 puts every later stage state past 1e100:
        # the step shrinks to underflow at 0.5 and no such state reaches the rhs
        states = []

        def rhs(x, y):
            states.append(y.copy())
            return np.array([1e120 if x > 0.5 else 1.0])

        with pytest.raises(numeric.IntegrationBlowUp) as err:
            numeric.integrate_ivp(rhs, 0.0, [0.0], 1.0)
        assert err.value.x == pytest.approx(0.5, abs=1e-12)
        assert np.all(np.abs(err.value.trajectory.ys) <= 1e100)
        assert np.all(np.abs(states) <= 1e100)

    @pytest.mark.parametrize("bad", [math.nan, 1e120])
    def test_fixed_step_blow_up_in_the_second_component(self, bad):
        # a fold over the state with Python's max drops a NaN that is not first
        def rhs(x, y):
            return (1.0, bad if x > 0.5 else 1.0)

        with pytest.raises(numeric.IntegrationBlowUp) as err:
            numeric.integrate_ivp(rhs, 0.0, [0.0, 0.0], 1.0, fixed_step=0.01)
        assert 0.5 < err.value.x <= 0.52
        assert np.all(np.abs(err.value.trajectory.ys) <= 1e100)

    def test_fixed_step_matches_classical_rk4_with_one_new_slope_per_node(self):
        calls = []

        def rhs(x, y):
            calls.append(x)
            return np.array([y[1], -(1 + 0.3 * math.sin(x)) * y[0]])

        traj = numeric.integrate_ivp(rhs, 0.0, [1.0, 0.0], 3.0, fixed_step=0.01)
        assert len(calls) == 1 + 4 * 300
        x, y, ys, fs = 0.0, np.array([1.0, 0.0]), [np.array([1.0, 0.0])], [rhs(0.0, np.array([1.0, 0.0]))]
        h = 3.0 / 300
        for _ in range(300):
            k1 = rhs(x, y)
            k2 = rhs(x + h / 2, y + h / 2 * k1)
            k3 = rhs(x + h / 2, y + h / 2 * k2)
            k4 = rhs(x + h, y + h * k3)
            y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
            x = x + h
            ys.append(y)
            fs.append(rhs(x, y))
        assert np.array_equal(traj.ys, np.array(ys))
        assert np.array_equal(traj.fs, np.array(fs))

    def test_retried_step_starts_from_f_at_the_accepted_state(self):
        # a narrow bump in the coefficient forces rejected attempts; each
        # retry must start again from f(x, y), not from a rejected stage
        calls = []

        def rhs(x, y):
            calls.append(x)
            return (y[1], -(1.0 + 100.0 / (1.0 + 400.0 * (x - 1.0) ** 2)) * y[0])

        traj = numeric.integrate_ivp(rhs, 0.0, [1.0, 0.0], 2.0, tol=1e-10)
        steps = len(traj.xs) - 1
        assert (len(calls) - 1) / 6 > steps  # some attempts were rejected
        stages = np.array(traj.stages)
        assert np.array_equal(stages[:, 0], traj.fs[:-1])
        assert np.array_equal(stages[:, 6], traj.fs[1:])
        assert np.array_equal(traj.fs, [rhs(x, y) for x, y in zip(traj.xs.tolist(), traj.ys.tolist())])

    def test_dense_output_is_as_accurate_as_the_nodes(self):
        # the quartic continuous extension has the order of the steps: between
        # the nodes y = sin x is read as well as at them (a cubic Hermite on
        # the node slopes reads it about a hundred times worse)
        traj = numeric.integrate_ivp(lambda x, y: (y[1], -y[0]), 0.0, [0.0, 1.0], 6.0, tol=1e-12)
        node_err = np.max(np.abs(traj.ys[:, 0] - np.sin(traj.xs)))
        xs = np.linspace(0.0, 6.0, 402)[1:-1]
        assert not np.isin(xs, traj.xs).any()
        dense_err = np.max(np.abs(traj(xs)[:, 0] - np.sin(xs)))
        assert dense_err <= 10 * node_err

    def test_every_rhs_call_gets_a_list_of_python_floats(self, monkeypatch):
        # the stage arithmetic runs on the floats it is given: one numpy
        # scalar in a state or a slope would make every later stage a numpy scalar
        integrate, seen = numeric.integrate_ivp, set()

        def watching(rhs, *args, **kwargs):
            def watched(x, y):
                seen.add((type(x), type(y), frozenset(map(type, y))))
                return rhs(x, y)

            return integrate(watched, *args, **kwargs)

        monkeypatch.setattr(numeric, "integrate_ivp", watching)
        spec = fg.GapSpec(2.0, 1.0, 0.0, 0.5)
        fg.integrate_gamma(spec, (0.0, 2.0))
        fg.integrate_gamma(spec, (0.0, 2.0), fixed_step=0.01)
        fg.floquet_discriminant(spec, spec.lam1)
        rc.kovalevskii_check(4, (1.0, 2.0, 3.0, 4.0), (0.0, 0.1))
        rc.pole_series_report(1, 0, 5)
        numeric.integrate_ivp(lambda x, y: (y[0],), 0.0, np.array([1.0]), 1.0)
        numeric.integrate_ivp(lambda x, y: (y[0],), 0.0, np.array([1.0]), 1.0, fixed_step=0.1)
        assert seen == {(float, list, frozenset({float}))}


def test_pow2_rounds_like_a_number():
    xs = np.random.default_rng(3).uniform(-2.0, 2.0, 20000)
    assert np.array_equal(numeric.pow2(xs), np.array([float(v) ** 2 for v in xs]))


class TestDenseOutput:
    @staticmethod
    def _scalar_calls(traj, xs):
        return np.array([traj(float(x)) for x in xs])

    @staticmethod
    def _probe_points(traj):
        lo, hi = sorted((traj.xs[0], traj.xs[-1]))
        return np.concatenate([
            traj.xs,  # every node, both ends included
            np.linspace(lo, hi, 257),
            [lo - 0.3, lo - 1e-9, hi + 1e-9, hi + 0.3],  # outside: the end steps extrapolate
        ])

    @pytest.mark.parametrize("x_end", [6.0, -6.0])
    @pytest.mark.parametrize("fixed_step", [None, 0.05])
    def test_array_call_equals_scalar_calls(self, x_end, fixed_step):
        def rhs(x, y):
            return np.array([y[1], -(1 + 0.3 * np.sin(x)) * y[0]])

        traj = numeric.integrate_ivp(rhs, 0.0, [1.0, 0.0], x_end, tol=1e-10, fixed_step=fixed_step)
        xs = self._probe_points(traj)
        batched = traj(xs)
        assert batched.shape == (xs.size, 2)
        np.testing.assert_array_max_ulp(batched, self._scalar_calls(traj, xs), maxulp=2)
        # nodes are reproduced exactly
        assert np.array_equal(traj(traj.xs), traj.ys)

    def test_array_shapes(self):
        traj = numeric.integrate_ivp(lambda x, y: (-y[0], -y[1], -y[2]), 0.0, [1.0, 2.0, 3.0], 1.0, tol=1e-10)
        assert traj(0.5).shape == (3,)
        assert traj(np.float64(0.5)).shape == (3,)
        assert traj([0.5]).shape == (1, 3)
        assert traj(np.zeros((2, 4))).shape == (2, 4, 3)

    def test_zero_width_trajectory(self):
        traj = numeric.integrate_ivp(lambda x, y: np.array([y[1], -y[0]]), 1.0, [0.3, 0.7], 1.0)
        xs = np.array([0.0, 1.0, 2.0])
        assert np.array_equal(traj(xs), np.tile([0.3, 0.7], (3, 1)))
        np.testing.assert_array_max_ulp(traj(xs), self._scalar_calls(traj, xs), maxulp=2)
        assert traj(1.0).shape == (2,)


class TestQuadrature:
    def test_parabola(self):
        assert numeric.quadrature(lambda x: x * x, 0, 1, tol=1e-12) == pytest.approx(1 / 3, abs=1e-12)

    def test_erf_oracle(self):
        v = numeric.quadrature(lambda x: np.exp(-x * x), 0, 1.3, tol=1e-12)
        assert v == pytest.approx(math.sqrt(math.pi) / 2 * math.erf(1.3), abs=1e-12)

    def test_against_scipy(self):
        f = lambda x: np.exp(-x) * np.cos(5 * x) / (1 + x * x)
        mine = numeric.quadrature(f, 0, 4, tol=1e-12)
        ref, _ = sp_integrate.quad(f, 0, 4, epsabs=1e-13, epsrel=1e-13)
        assert mine == pytest.approx(ref, abs=1e-11)

    def test_divergent_integral_raises(self):
        with pytest.raises(numeric.QuadratureError):
            numeric.quadrature(lambda x: 1 / x, 0.0, 1.0, tol=1e-10)


def _oscillating(x):
    return np.exp(-x) * np.cos(5 * x) / (1 + x * x)


class TestArrayQuadrature:
    """An array of upper limits in one sweep against one call per limit."""

    TOL = 1e-12

    def _check_against_per_point(self, f, a, b):
        out = numeric.quadrature(f, a, b, tol=self.TOL)
        b = np.asarray(b, dtype=float)
        assert isinstance(out, np.ndarray) and out.shape == b.shape
        for got, x in zip(out.ravel(), b.ravel()):
            ref = numeric.quadrature(f, a, float(x), tol=self.TOL)
            assert isinstance(ref, float)
            # both meet the bound tol * max(1, |I|) on their error estimate
            assert abs(got - ref) <= 2 * self.TOL * max(1.0, abs(ref))
            exact, _ = sp_integrate.quad(f, a, x, epsabs=1e-13, epsrel=1e-13)
            assert got == pytest.approx(exact, rel=1e-11, abs=1e-12)
        return out

    def test_unsorted_limits_on_both_sides(self):
        self._check_against_per_point(_oscillating, 0.0, [3.0, -1.0, 0.5, 2.0, -2.5, 1.25])

    def test_duplicates_and_the_anchor_itself(self):
        out = self._check_against_per_point(_oscillating, 0.5, [2.0, 0.5, 2.0, -1.0, 0.5])
        assert out[1] == 0.0 and out[4] == 0.0
        assert out[0] == out[2]

    def test_anchor_outside_the_range(self):
        self._check_against_per_point(_oscillating, 5.0, [1.0, 2.0, 4.5])
        self._check_against_per_point(_oscillating, -3.0, [1.0, -1.0, 4.5])

    def test_two_dimensional_limits(self):
        self._check_against_per_point(_oscillating, 0.0, np.linspace(-2.0, 3.0, 12).reshape(3, 4))

    def test_large_relative_bound(self):
        # integrands near e^35: the bound is relative to each |I(x)|
        f = lambda x: np.exp(x * x + 10)
        xs = np.linspace(-5.0, 5.0, 41)
        out = numeric.quadrature(f, 0.0, xs, tol=self.TOL)
        for got, x in zip(out, xs):
            ref = numeric.quadrature(f, 0.0, float(x), tol=self.TOL)
            assert abs(got - ref) <= 2 * self.TOL * max(1.0, abs(ref))

    def test_number_limit_gives_float(self):
        assert numeric.quadrature(_oscillating, 1.0, 1.0) == 0.0
        assert isinstance(numeric.quadrature(_oscillating, 0.0, 1.0), float)
        assert numeric.quadrature(_oscillating, 1.0, [1.0, 1.0]).tolist() == [0.0, 0.0]

    def test_one_integrand_call_per_pass(self):
        sizes = []

        def f(x):
            sizes.append(x.size)
            return _oscillating(x)

        numeric.quadrature(f, 0.0, np.linspace(-2.0, 3.0, 50), tol=self.TOL)
        assert all(n % 15 == 0 for n in sizes)
        assert sizes[0] == 15 * 50  # every breakpoint gap on the first pass
        assert len(sizes) <= 3

    def test_constant_integrand_broadcasts(self):
        assert numeric.quadrature(lambda x: 2.0, 0.0, [1.0, -3.0]).tolist() == [2.0, -6.0]

    def test_pole_across_the_range_raises(self):
        with np.errstate(divide="ignore"), pytest.raises(numeric.QuadratureError):
            numeric.quadrature(lambda x: 1 / x, -1.0, 1.0)  # the midpoint node hits the pole
        with pytest.raises(numeric.QuadratureError):
            numeric.quadrature(lambda x: 1 / x, -1.0, [0.5, 2.0])

    def test_nan_limit_raises(self):
        # infinite limits too: the limits must be finite, on either side
        for a, b in [(0.0, [1.0, math.nan]), (math.nan, 1.0), (0.0, [1.3, math.inf]), (0.0, -math.inf),
                     (math.inf, 1.0), (-math.inf, [0.0, 1.0])]:
            with pytest.raises(numeric.QuadratureError):
                numeric.quadrature(_oscillating, a, b)

    def test_non_finite_integrand_raises(self):
        with pytest.raises(numeric.QuadratureError):
            numeric.quadrature(lambda x: np.where(x > 0.5, np.nan, 1.0), 0.0, 1.0)

    def test_domain_edge_gives_nan_beyond_it(self):
        f = lambda x: np.where(np.abs(x) < 1, 1 - x * x, np.nan)
        xs = np.array([1.5, -2.0, 0.0, -0.5, 0.99, 3.0, 0.5, -1.5])
        out = numeric.quadrature(f, 0.0, xs, tol=self.TOL, domain=True)
        assert np.isnan(out).tolist() == [True, True, False, False, False, True, False, True]
        inside = ~np.isnan(out)
        assert out[inside] == pytest.approx(xs[inside] - xs[inside] ** 3 / 3, rel=1e-12, abs=1e-13)
        assert math.isnan(numeric.quadrature(f, 0.0, 2.0, domain=True))
        assert math.isnan(numeric.quadrature(f, 0.0, -2.0, domain=True))
        assert numeric.quadrature(f, 0.0, 0.5, domain=True) == pytest.approx(0.5 - 0.5**3 / 3, rel=1e-12)
        with pytest.raises(numeric.QuadratureError):
            numeric.quadrature(f, 0.0, xs)


class TestLinsolve:
    def test_identity(self):
        b = np.array([3.0, -1.0, 2.0])
        assert numeric.LUFactorization(np.eye(3)).solve(b) == pytest.approx(b)

    def test_vieta_limit_system(self):
        # degenerate tanh -> 1 interpolation system; solution are the
        # coefficients of (k - 3)(k - 2)(k - 1)
        kk = [3.0, 2.0, 1.0]
        m = [[k * k, k, 1.0] for k in kk]
        b = [-k**3 for k in kk]
        assert numeric.LUFactorization(m).solve(b) == pytest.approx([-6.0, 11.0, -6.0], abs=1e-12)

    def test_singular_matrix(self):
        with pytest.raises(numeric.SingularMatrixError):
            numeric.LUFactorization(np.ones((3, 3))).solve(np.ones(3))

    def test_residual_bound_on_random_systems(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = rng.uniform(-1, 1, (6, 6)) + 6 * np.eye(6)
            b = rng.uniform(-1, 1, 6)
            x = numeric.LUFactorization(m).solve(b)
            assert np.max(np.abs(m @ x - b)) <= 1e-12 * max(1.0, np.max(np.abs(b)))

    def test_factorization_reuse(self):
        rng = np.random.default_rng(8)
        m = rng.uniform(-1, 1, (4, 4)) + 4 * np.eye(4)
        lu = numeric.LUFactorization(m)
        for _ in range(3):
            b = rng.uniform(-1, 1, 4)
            assert lu.solve(b) == pytest.approx(np.linalg.solve(m, b), abs=1e-12)


