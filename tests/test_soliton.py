import functools
import math

import mpmath
import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from riccatikit import expr as ex
from riccatikit import numeric
from riccatikit import soliton as so
from riccatikit.series import zeta_chain

SPEC1 = so.SolitonSpec((1.0,), (0.0,))
SPEC2 = so.SolitonSpec((2.0, 1.0), (0.0, 0.0))
SPEC3 = so.SolitonSpec((3.0, 2.0, 1.0), (0.0, 0.3, -0.4))
SPEC4 = so.SolitonSpec((4.0, 3.0, 2.0, 1.0), (0.2, -0.1, 0.0, 0.4))
SPEC8 = so.SolitonSpec(tuple(float(v) for v in range(8, 0, -1)), (0.1, -0.2, 0.3, 0.0, 0.5, -0.5, 0.2, 0.0))


class TestSpecValidation:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            so.SolitonSpec((1.0, 2.0), (0.0, 0.0))

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            so.SolitonSpec((1.0, -0.5), (0.0, 0.0))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            so.SolitonSpec((1.0,), (0.0, 0.0))


class TestSolveCoefficients:
    def test_single_soliton_at_origin(self):
        (a,) = so.solve_coefficients(SPEC1, 0.0, order=0)
        assert a[0] == pytest.approx(0.0, abs=1e-15)

    def test_single_soliton_matches_tanh(self):
        for x in (-2.0, 0.3, 1.7):
            (a,) = so.solve_coefficients(SPEC1, x, order=0)
            assert a[0] == pytest.approx(-math.tanh(x), rel=1e-14)

    def test_vieta_limit_for_three_solitons(self):
        # degenerate tanh -> 1 system: coefficients of (k-3)(k-2)(k-1)
        m, rhs = so.coefficient_system([3.0, 2.0, 1.0], [1.0, 1.0, 1.0])
        a = np.linalg.solve(m, rhs)
        assert a == pytest.approx([-6.0, 11.0, -6.0], abs=1e-12)

    def test_two_soliton_closed_coefficient(self):
        k1, k2 = 2.0, 1.0
        for x in (-1.0, 0.0, 0.8):
            e1, e2 = math.tanh(k1 * x), math.tanh(k2 * x)
            expected = (k2**2 - k1**2) * e1 / (k1 - k2 * e1 * e2)
            (a,) = so.solve_coefficients(SPEC2, x, order=0)
            assert a[0] == pytest.approx(expected, rel=1e-13)
        (a0,) = so.solve_coefficients(SPEC2, 0.0, order=0)
        assert a0[0] == pytest.approx(0.0, abs=1e-15)

    def test_implicit_derivative_against_finite_differences(self):
        h = 1e-6
        for spec in (SPEC1, SPEC2, SPEC3):
            a, da = so.solve_coefficients(spec, 0.4, order=1)
            ap = so.solve_coefficients(spec, 0.4 + h, order=0)[0]
            am = so.solve_coefficients(spec, 0.4 - h, order=0)[0]
            fd = (ap - am) / (2 * h)
            assert da == pytest.approx(fd, abs=1e-8)

    def test_second_derivative_against_finite_differences(self):
        h = 1e-5
        a, da, dda = so.solve_coefficients(SPEC2, -0.3, order=2)
        dap = so.solve_coefficients(SPEC2, -0.3 + h, order=1)[1]
        dam = so.solve_coefficients(SPEC2, -0.3 - h, order=1)[1]
        assert dda == pytest.approx((dap - dam) / (2 * h), abs=1e-7)


def _close(batched, looped, rtol=1e-13):
    np.testing.assert_allclose(batched, looped, rtol=rtol, atol=rtol * max(1.0, np.max(np.abs(looped))))


class TestBatchedSolve:
    @pytest.mark.parametrize("spec", [SPEC1, SPEC2, SPEC4, SPEC8], ids=lambda s: f"N{s.n}")
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_array_x_matches_scalar_calls(self, spec, order):
        xs = np.linspace(-6.0, 6.0, 41)
        batched = so.solve_coefficients(spec, xs, order=order)
        assert len(batched) == order + 1
        for r, arr in enumerate(batched):
            assert arr.shape == (xs.size, spec.n)
            looped = np.array([so.solve_coefficients(spec, float(x), order=order)[r] for x in xs])
            assert looped.shape == (xs.size, spec.n)
            _close(arr, looped)
        grid = xs[:40].reshape(5, 8)
        assert so.solve_coefficients(spec, grid, order=order)[order].shape == (5, 8, spec.n)
        assert so.solve_coefficients(spec, 0.3, order=order)[order].shape == (spec.n,)

    @pytest.mark.parametrize("spec", [SPEC1, SPEC2, SPEC3, SPEC8], ids=lambda s: f"N{s.n}")
    def test_grid_potential_matches_pointwise_evaluation(self, spec):
        grid = np.linspace(-8.0, 8.0, 81)
        tp = so.TransparentPotential(spec, grid)
        assert tp.a.shape == (grid.size, spec.n)
        assert tp.u.shape == grid.shape
        _close(tp.a, np.array([so.solve_coefficients(spec, float(x), order=0)[0] for x in grid]))
        _close(tp.u, np.array([tp.u_at(float(x)) for x in grid]))

    def test_system_matrix_batches(self):
        xs = np.array([-3.0, 0.0, 2.5])
        m, rhs = so.system_matrix(SPEC3, xs)
        assert m.shape == (3, 3, 3) and rhs.shape == (3, 3)
        for i, x in enumerate(xs):
            mi, ri = so.system_matrix(SPEC3, float(x))
            np.testing.assert_array_equal(m[i], mi)
            np.testing.assert_array_equal(rhs[i], ri)

    @pytest.mark.parametrize("spec", [SPEC1, SPEC2, SPEC4], ids=lambda s: f"N{s.n}")
    def test_kp_and_kdv_fields_take_arrays(self, spec):
        xs = np.linspace(-4.0, 4.0, 17)
        kp = so.kp_field(spec, xs, 0.4, -0.3)
        kdv = so.kdv_field(spec, xs, 0.2)
        assert kp.shape == kdv.shape == xs.shape
        _close(kp, np.array([so.kp_field(spec, float(x), 0.4, -0.3) for x in xs]))
        _close(kdv, np.array([so.kdv_field(spec, float(x), 0.2) for x in xs]))


class TestSolveFailsLoudly:
    def test_nan_scalar_raises(self):
        with pytest.raises(numeric.NumericError, match="x = nan"):
            so.solve_coefficients(SPEC2, float("nan"))

    def test_nan_in_grid_raises(self):
        with pytest.raises(numeric.NumericError, match="x = nan"):
            so.potential(SPEC2, [0.0, float("nan")])

    def test_names_the_first_offending_point(self, monkeypatch):
        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        monkeypatch.setattr(np.linalg, "det", lambda a: np.where(np.arange(len(a)) == 2, 0.0, 1.0))
        with pytest.raises(numeric.NumericError, match=r"x = 1\.5$"):
            so.solve_coefficients(SPEC2, np.array([-1.0, 0.5, 1.5, 2.5]))


class TestPotential:
    def test_one_soliton_closed_form(self):
        grid = np.linspace(-10.0, 10.0, 201)
        tp = so.potential(SPEC1, grid)
        cf = so.closed_form_potential(SPEC1)
        gap = max(abs(tp.u[i] - cf.evaluate(x=float(v))) for i, v in enumerate(grid))
        assert gap <= 1e-13
        assert tp.u_at(0.0) == pytest.approx(-2.0, abs=1e-14)

    def test_two_soliton_closed_form(self):
        grid = np.linspace(-8.0, 8.0, 161)
        tp = so.potential(SPEC2, grid)
        cf = so.closed_form_potential(SPEC2)
        gap = max(abs(tp.u[i] - cf.evaluate(x=float(v))) for i, v in enumerate(grid))
        assert gap <= 1e-10

    def test_asymptotic_coefficient_limits(self):
        ksum = sum(SPEC2.k)
        xe = 30.0 / SPEC2.k[-1]
        a_plus = so.solve_coefficients(SPEC2, xe, order=0)[0][0]
        a_minus = so.solve_coefficients(SPEC2, -xe, order=0)[0][0]
        assert a_plus == pytest.approx(-ksum, abs=1e-8)
        assert a_minus == pytest.approx(ksum, abs=1e-8)

    def test_decay_at_far_field(self):
        for spec in (SPEC1, SPEC2, SPEC3):
            xe = 30.0 / spec.k[-1]
            tp = so.TransparentPotential(spec)
            assert abs(tp.u_at(xe)) <= 1e-10
            assert abs(tp.u_at(-xe)) <= 1e-10

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            so.potential(SPEC1, [])


class TestArrayProbes:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_array_call_equals_point_calls_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        spec = so.SolitonSpec(tuple(np.linspace(3.5, 0.5, n)), tuple(rng.uniform(-1, 1, n)))
        ks = np.array([0.0, 0.5, 1.7, 3.0, 4.2])
        xs = np.array([-3.0, -0.4, 0.37, 2.6])

        def probes(k, x):
            return so.numeric_wronskian(spec, k, x), so.schrodinger_residual(spec, k, x)

        grids = probes(ks[:, None], xs)
        for i, k in enumerate(ks):
            for j, x in enumerate(xs):
                for g, v in zip(grids, probes(k, x)):
                    assert np.float64(g[i, j]).tobytes() == np.float64(v).tobytes()

    def test_one_solve_per_call(self, monkeypatch):
        calls = []
        solve = so.solve_coefficients
        monkeypatch.setattr(so, "solve_coefficients", lambda *a, **kw: calls.append(a) or solve(*a, **kw))
        res = so.schrodinger_residual(SPEC3, np.array([[0.5], [1.7]]), np.array([-1.0, 0.8]))
        assert res.shape == (2, 2) and len(calls) == 1


class TestWronskian:
    def test_one_soliton_polynomial(self):
        wp = so.wronskian_poly(SPEC1)
        assert wp.tolist() == [-2.0, 0.0, 2.0, 0.0]  # -2k^3 + 2k

    def test_zeros_at_the_wavenumbers(self):
        wp = so.wronskian_poly(SPEC2)
        for kj in SPEC2.k:
            assert abs(np.polyval(wp, kj)) <= 1e-12

    def test_odd_function(self):
        wp = so.wronskian_poly(SPEC3)
        for k in (0.3, 1.1, 2.7):
            assert np.polyval(wp, -k) == pytest.approx(-np.polyval(wp, k), rel=1e-13)

    def test_numeric_wronskian_matches_and_is_x_independent(self):
        wp = so.wronskian_poly(SPEC2)
        for k in (0.4, 0.9, 1.6, 2.5, 3.3):
            vals = [so.numeric_wronskian(SPEC2, k, x) for x in (-3.0, -0.5, 0.0, 1.2, 4.0)]
            assert max(vals) - min(vals) <= 1e-8 * max(1.0, abs(vals[0]))
            assert vals[2] == pytest.approx(np.polyval(wp, k), rel=1e-8)


class TestSchrodingerResidual:
    @pytest.mark.parametrize("spec", [SPEC1, SPEC2, SPEC3])
    @pytest.mark.parametrize("k", [0.5, 1.7, 3.0])
    def test_transparency(self, spec, k):
        worst = max(so.schrodinger_residual(spec, k, x) for x in (-3.0, -0.4, 0.9, 2.6))
        assert worst <= 1e-8

    def test_uniqueness_determinant_and_conditioning(self):
        rng = np.random.default_rng(3)
        for n in (2, 4, 6):
            k = tuple(sorted(rng.uniform(0.3, 3.0, n), reverse=True))
            if min(np.diff(sorted(k))) < 0.05:
                continue
            spec = so.SolitonSpec(k, tuple(rng.uniform(-1, 1, n)))
            sign0 = None
            for x in np.linspace(-50, 50, 41):
                m, _ = so.system_matrix(spec, float(x))
                s, _ = np.linalg.slogdet(m)
                sign0 = s if sign0 is None else sign0
                assert s == sign0
                assert np.linalg.cond(m) < 1e8


class TestConsistencyWithZetaChain:
    def test_a1_equals_zeta1(self):
        u = so.closed_form_potential(SPEC1)
        z1 = zeta_chain(u, 1)[0]
        for x in (-2.0, 0.0, 1.3):
            a = so.solve_coefficients(SPEC1, x, order=0)[0]
            assert z1.evaluate(x=x) == pytest.approx(a[0], rel=1e-13, abs=1e-13)

    def test_truncation_identity_is_exact(self):
        u = so.closed_form_potential(SPEC1)
        z1 = zeta_chain(u, 1)[0]
        rel = ex.sub(ex.intpow(z1, 2), ex.diff(z1))
        for x in (-1.0, 0.2, 2.4):
            assert rel.evaluate(x=x) == pytest.approx(SPEC1.k[0] ** 2, abs=1e-14)


class TestKpField:
    def test_reduces_to_static_potential(self):
        for spec in (SPEC1, SPEC2, SPEC3):
            tp = so.TransparentPotential(spec)
            for x in (-1.0, 0.5, 2.0):
                assert so.kp_field(spec, x, 0.0, 0.0) == pytest.approx(tp.u_at(x), abs=1e-14)

    def test_one_soliton_travelling_wave(self):
        k, beta = 1.0, 0.0
        for (x, y, t) in ((0.5, 0.2, -0.3), (-1.0, 1.0, 0.5)):
            phase = k * x + k**2 * y + k**3 * t + beta
            expected = -2 * k * k / math.cosh(phase) ** 2
            assert so.kp_field(SPEC1, x, y, t) == pytest.approx(expected, rel=1e-12)

    def test_closed_form_matches_pipeline(self):
        for (x, y, t) in ((0.3, -0.4, 0.2), (-1.2, 0.7, -0.5)):
            assert so.kp_closed_form(SPEC2, y, t).evaluate(x=x) == pytest.approx(so.kp_field(SPEC2, x, y, t), rel=1e-11)

    def test_two_soliton_phase_shift_matches_log_ratio(self):
        # after the collision the faster soliton is displaced by
        # log((k1+k2)/(k1-k2))/k1 along x; extract both asymptotic positions
        # from the time-extended field by golden-section minimisation
        k1, k2 = SPEC2.k

        def trough(t):
            center = 4 * k1 * k1 * t
            lo, hi = center - 3.0, center + 3.0
            for _ in range(200):
                m1 = lo + (hi - lo) * 0.382
                m2 = lo + (hi - lo) * 0.618
                if so.kdv_field(SPEC2, m1, t) < so.kdv_field(SPEC2, m2, t):
                    hi = m2
                else:
                    lo = m1
            return 0.5 * (lo + hi)

    # the fast soliton sits at 4 k1^2 t + delta(t); the total jump is the shift
        t_far = 8.0
        shift = (trough(t_far) - 4 * k1 * k1 * t_far) - (trough(-t_far) - 4 * k1 * k1 * (-t_far))
        predicted = math.log((k1 + k2) / (k1 - k2)) / k1
        assert abs(abs(shift) - predicted) <= 1e-3


class TestPdeResidual:
    def test_kdv_exact_residual_vanishes(self):
        for spec in (SPEC1, SPEC2):
            rep = so.pde_residual(spec, which="kdv", box=3.0, n=5)
            assert rep.max_abs <= 1e-10

    def test_kdv_travelling_against_direct_derivatives(self):
        # the x-only slice at t and its x-derivatives, with u_t from the exact oracle
        for (x, t) in ((0.4, -0.6), (-1.0, 0.8)):
            u = so.kdv_closed_form(SPEC1, t)
            res = ex.add(ex.neg(ex.mul(6, u, ex.diff(u))), ex.diff(u, 3))
            assert abs(_exact(SPEC1, x, 0.0, t, kdv=True)["u_t"] + res.evaluate(x=x)) <= 1e-12

    def test_fd_mode_second_order_convergence(self):
        from riccatikit.soliton import _fd_kdv

        r1 = abs(_fd_kdv(SPEC2, 0.7, 0.3, 0.04))
        r2 = abs(_fd_kdv(SPEC2, 0.7, 0.3, 0.02))
        assert r1 / r2 == pytest.approx(4.0, abs=0.5)

    def test_fd_mode_matches_exact_partials_for_small_steps(self):
        from riccatikit.soliton import _fd_kp

        point = (0.5, 0.4, 0.3)
        exact_val = _exact(SPEC2, *point)["kp"]
        assert so._kp_residual(SPEC2, *point)[1] == pytest.approx(exact_val, rel=1e-9)
        fd_val = _fd_kp(SPEC2, *point, 0.02)
        assert fd_val == pytest.approx(exact_val, abs=5e-2)

    def test_zero_field_has_zero_residual(self):
        # far outside the support every term collapses
        rep = so.pde_residual(SPEC1, which="kdv", box=0.0, n=1)
        assert rep.max_abs <= 1e-12

    @pytest.mark.parametrize("which", ["kdv", "kp"])
    def test_nan_after_the_first_point_is_reported(self, which, monkeypatch):
        # u undefined for x >= 1 only: the residual is NaN on the last grid
        # columns only
        tau_sum = so._tau_sum

        def faulty(spec, x, y, t, kdv):
            d = tau_sum(spec, x, y, t, kdv)
            return {**d, "u": d["u"] + np.where(x < 1, 0.0, np.nan)}

        monkeypatch.setattr(so, "_tau_sum", faulty)
        assert math.isnan(so.pde_residual(SPEC1, which=which, box=3.0, n=5).max_abs)

    def test_xt_flow_identity_holds_with_transverse_phases(self):
        # y enters the extended phases only through constant shifts of the
        # x-t flow, so the x-t part of the KP operator vanishes exactly...
        # (the x-only slice at (y, t) and its x-derivatives, with u_tx from the exact oracle)
        worst = 0.0
        for b in (-1.0, 0.8):
            for c in (-0.7, 0.6):
                u = so.kp_closed_form(SPEC2, b, c)
                ux = ex.diff(u)
                core = ex.add(ex.diff(u, 4), ex.mul(-6, ex.intpow(ux, 2)), ex.mul(-6, u, ex.diff(ux)))
                for a in (-2.0, 0.4, 1.5):
                    worst = max(worst, abs(-4 * _exact(SPEC2, a, b, c)["u_tx"] + core.evaluate(x=a)))
        assert worst <= 1e-8

    def test_full_kp_residual_equals_transverse_term(self):
        # ...and the remaining full-KP residual is exactly 3 u_yy, which does
        # not vanish: the tanh construction cannot carry genuine y-dynamics
        pts = [(-1.0, 0.5, 0.3), (0.4, -0.8, 0.1), (1.2, 0.2, -0.6)]
        for (x, y, t) in pts:
            assert so._kp_residual(SPEC2, x, y, t)[1] == pytest.approx(
                3 * _exact(SPEC2, x, y, t)["u_yy"], rel=1e-6, abs=1e-8
            )


class TestReport:
    SPEC5 = so.SolitonSpec((5.0, 4.0, 3.0, 2.0, 1.0), (0.0,) * 5)
    NAMES = ["a1_limit_plus_infinity", "a1_limit_minus_infinity", "decay_at_far_field",
             "wronskian_polynomial_match", "transparency_residual"]

    @pytest.mark.parametrize("spec", [SPEC1, SPEC2, SPEC3, SPEC4, SPEC5], ids=lambda s: f"N{s.n}")
    def test_checks_pass_and_closed_form_only_up_to_two(self, spec):
        grid = np.linspace(-10, 10, 201)
        tp = so.potential(spec, grid)
        rep = so.report(tp)
        assert list(rep) == ["u_at_zero", "checks"]
        assert rep["u_at_zero"] == tp.u_at(0.0)
        names = [c["name"] for c in rep["checks"]]
        assert names == self.NAMES + (["closed_form_match"] if spec.n <= 2 else [])
        assert all(c["pass"] for c in rep["checks"])

    KP_GRID, KP_Y, KP_T = np.linspace(-8, 8, 321), 0.5, 0.25

    def _kp_report(self, spec, u=None):
        u = so.kp_field(spec, self.KP_GRID, self.KP_Y, self.KP_T) if u is None else u
        return so.kp_report(spec, self.KP_GRID, self.KP_Y, self.KP_T, u)

    def test_kp_report_two_solitons_uses_the_tau_sum(self, monkeypatch):
        monkeypatch.setattr(so, "kp_closed_form", lambda *args: pytest.fail("kp_report built the closed form"))
        rep = self._kp_report(SPEC2)
        assert list(rep) == ["transverse_term_max", "checks"]
        assert [c["name"] for c in rep["checks"]] == ["u_vs_tau_sum", "xt_flow_identity"]
        assert all(c["pass"] for c in rep["checks"])
        assert rep["transverse_term_max"] == so.pde_residual(SPEC2, "kp", box=2.0, n=3).max_abs == 288.0

    @pytest.mark.parametrize("spec", [SPEC3, SPEC4, SPEC8], ids=lambda s: f"N{s.n}")
    def test_kp_report_three_or_more_solitons_judges_the_xt_flow(self, spec):
        rep = self._kp_report(spec)
        assert [c["name"] for c in rep["checks"]] == ["u_vs_tau_sum", "xt_flow_identity"]
        assert all(c["pass"] for c in rep["checks"])
        assert rep["transverse_term_max"] == so.pde_residual(spec, "kp", box=2.0, n=3).max_abs

    @pytest.mark.parametrize("i, error", [(0, 1e-7), (160, -1e-7), (320, 1e-7), (200, math.nan)])
    def test_kp_report_fails_a_wrong_written_value(self, i, error):
        # one value of the written column off by ten times the tolerance, or NaN
        u = so.kp_field(SPEC2, self.KP_GRID, self.KP_Y, self.KP_T)
        u[i] += error * max(1.0, np.max(np.abs(u)))
        checks = {c["name"]: c for c in self._kp_report(SPEC2, u)["checks"]}
        assert not checks["u_vs_tau_sum"]["pass"]
        assert checks["xt_flow_identity"]["pass"]


def _ladder(n):
    """k = n, ..., 1 with zero phases: the Poschl-Teller well u = -n(n + 1) sech^2 x."""
    return so.SolitonSpec(tuple(float(v) for v in range(n, 0, -1)), (0.0,) * n)


# the tau-sum's partials as (x, y, t) derivative orders
PARTIALS = {"u": (0, 0, 0), "u_x": (1, 0, 0), "u_xx": (2, 0, 0), "u_xxx": (3, 0, 0), "u_xxxx": (4, 0, 0),
            "u_t": (0, 0, 1), "u_tx": (1, 0, 1), "u_yy": (0, 2, 0)}


@functools.cache
def _oracle(spec, kdv):
    """The N <= 2 closed form in (x, y, t) and its PARTIALS, built by sympy on the spec's exact
    binary values, with closed_form_potential's phases extended as SolitonSpec.shifted extends them."""
    x, y, t = sp.symbols("x y t")
    k = [sp.Rational(v) for v in spec.k]
    theta = [kj * x + (-4 * kj**3 * t if kdv else kj**2 * y + kj**3 * t) + sp.Rational(b)
             for kj, b in zip(k, spec.beta)]
    if spec.n == 1:
        u = -2 * k[0] ** 2 / sp.cosh(theta[0]) ** 2
    else:
        f = (k[0] - k[1]) * sp.cosh(theta[0] + theta[1]) + (k[0] + k[1]) * sp.cosh(theta[0] - theta[1])
        u = -2 * sp.diff(sp.log(f), x, 2)
    return sp.lambdify((x, y, t), [sp.diff(u, x, a, y, b, t, c) for a, b, c in PARTIALS.values()], "mpmath", cse=True)


def _exact(spec, x, y, t, kdv=False):
    """The PARTIALS at broadcast points, evaluated at 40 digits, and the KP residual
    -4 u_tx + u_xxxx - 6 u_x^2 - 6 u u_xx (+ 3 u_yy) as "kp_xt" ("kp"), each rounded once to float."""
    fn = _oracle(spec, kdv)
    x, y, t = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (x, y, t)))
    out = {name: np.empty(x.shape) for name in (*PARTIALS, "kp_xt", "kp")}
    with mpmath.workdps(40):
        for i in np.ndindex(x.shape):
            d = dict(zip(PARTIALS, fn(mpmath.mpf(x[i]), mpmath.mpf(y[i]), mpmath.mpf(t[i]))))
            d["kp_xt"] = -4 * d["u_tx"] + d["u_xxxx"] - 6 * d["u_x"] ** 2 - 6 * d["u"] * d["u_xx"]
            d["kp"] = d["kp_xt"] + 3 * d["u_yy"]
            for name, v in d.items():
                out[name][i] = float(v)
    return out


class TestTauSum:
    # kp_report's two sample grids: the x-t probes and pde_residual's box=2, n=3 grid
    GRIDS = {
        "probes": np.meshgrid((-2.0, 0.5, 1.5), (-1.0, 0.7), (-0.8, 0.3), indexing="ij"),
        "box": np.meshgrid(*[np.linspace(-2.0, 2.0, 3)] * 3, indexing="ij"),
    }

    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("spec", [SPEC1, SPEC2, so.SolitonSpec((1.7, 0.6), (0.3, -0.5))],
                             ids=["N1", "N2", "N2_phases"])
    def test_partials_and_kp_residual_match_the_symbolic_closed_form(self, spec, grid):
        x, y, t = self.GRIDS[grid]
        ref = _exact(spec, x, y, t)
        got = so._tau_sum(spec, x, y, t, False)
        assert set(got) == set(PARTIALS)
        for name in PARTIALS:
            assert np.max(np.abs(got[name] - ref[name]) / np.maximum(1.0, np.abs(ref[name]))) <= 1e-12, name
        xt_part, full, _ = so._kp_residual(spec, x, y, t)
        assert np.max(np.abs(xt_part - ref["kp_xt"])) <= 1e-12
        assert np.max(np.abs(full - ref["kp"]) / np.maximum(1.0, np.abs(full))) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_u_matches_the_coefficient_solve(self, n, seed):
        # drawn as the soliton_grid benchmark draws its specs
        rng = np.random.default_rng(seed)
        gaps = rng.uniform(0.5, 1.5, n)
        spec = so.SolitonSpec(tuple(np.cumsum(gaps)[::-1]), tuple(rng.uniform(-1.0, 1.0, n)))
        xs = np.linspace(-10, 10, 401)
        u = so._tau_sum(spec, xs, 0.0, 0.0, True)["u"]
        ref = so.potential(spec, xs).u
        assert np.max(np.abs(u - ref)) <= 1e-10 * max(1.0, np.max(np.abs(ref)))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_poschl_teller_ladder(self, n):
        xs = np.linspace(-10, 10, 2001)
        got = so._tau_sum(_ladder(n), xs, 0.0, 0.0, True)
        c, sech2, th = n * (n + 1), 1 / np.cosh(xs) ** 2, np.tanh(xs)
        exact = {"u": -c * sech2, "u_x": 2 * c * sech2 * th, "u_xx": 2 * c * (sech2**2 - 2 * sech2 * th**2)}
        for name, ref in exact.items():
            assert np.max(np.abs(got[name] - ref)) <= 1e-12 * c, name

    @pytest.mark.parametrize("spec", [SPEC3, TestReport.SPEC5, SPEC8], ids=lambda s: f"N{s.n}")
    def test_kdv_residual_vanishes_for_any_n(self, spec):
        rep = so.pde_residual(spec, which="kdv", box=3.0, n=5)
        assert (rep.which, rep.points) == ("kdv", 25)
        assert rep.max_abs <= 1e-8

    def test_more_than_twelve_wavenumbers_are_refused(self):
        spec = _ladder(13)
        for which in ("kp", "kdv"):
            with pytest.raises(ValueError, match="8192"):
                so.pde_residual(spec, which=which)
