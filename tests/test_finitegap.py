import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import special as sp_special

from riccatikit import finitegap as fg
from riccatikit import numeric

SPEC = fg.GapSpec(2.0, 1.0, 0.0, 0.5)


class TestGapSpec:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            fg.GapSpec(1.0, 2.0, 0.0, 0.5)

    def test_interior_start_enforced(self):
        with pytest.raises(ValueError):
            fg.GapSpec(2.0, 1.0, 0.0, 1.5)

    def test_band_edge_seed_rejected(self):
        # gamma0 = lambda2 with zero slope seeds only the spurious constant
        # branch of the first-order form, so the constructor refuses it
        with pytest.raises(ValueError):
            fg.GapSpec(2.0, 1.0, 0.0, 1.0)

    def test_c_poly(self):
        c = fg.c_poly(SPEC)
        assert np.polyval(c, 0.5) == pytest.approx(4 * (0.5 - 2) * (0.5 - 1) * 0.5)
        assert c[0] == 4.0


@st.composite
def _narrow_bands(draw):
    """Specs with m = (lambda2 - lambda3) / (lambda1 - lambda3) down to 1e-12 and gamma0 anywhere in the band."""
    lam3 = draw(st.floats(-3.0, 3.0))
    span = draw(st.floats(0.5, 5.0))
    lam2 = lam3 + span * 10.0 ** draw(st.floats(-12.0, -0.01))
    gamma0 = lam3 + (lam2 - lam3) * draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True,
                                                   allow_subnormal=False))
    assume(lam3 + span > lam2 > gamma0 > lam3)
    return fg.GapSpec(lam3 + span, lam2, lam3, gamma0, sign=draw(st.sampled_from((1, -1))))


class TestIntegrateGamma:
    def test_stays_in_band(self):
        traj = fg.integrate_gamma(SPEC, (0.0, 12.0), step=0.01)
        assert traj.gammas.min() >= SPEC.lam3 - 1e-9
        assert traj.gammas.max() <= SPEC.lam2 + 1e-9

    def test_oscillates(self):
        traj = fg.integrate_gamma(SPEC, (0.0, 12.0), step=0.01)
        assert traj.gammas.max() > 0.99
        assert traj.gammas.min() < 0.01

    def test_energy_invariant_over_ten_periods(self):
        t = fg.period(SPEC)
        traj = fg.integrate_gamma(SPEC, (0.0, 10.5 * t), step=0.01)
        c = fg.c_poly(SPEC)
        drift = max(
            abs(traj.dgammas[i, 0] ** 2 - np.polyval(c, traj.gammas[i, 0])) for i in range(len(traj.xs))
        )
        assert drift <= 1e-8 * max(1.0, abs(np.polyval(c, SPEC.gamma0)))

    def test_rhs_values_are_python_floats(self, monkeypatch):
        # the fixed-step RK4 does its stage arithmetic on Python floats; a
        # numpy-scalar coefficient would make every stage a numpy scalar
        integrate, seen = numeric.integrate_ivp, []

        def keeping_rhs(rhs, *args, **kwargs):
            seen.append(rhs)
            return integrate(rhs, *args, **kwargs)

        monkeypatch.setattr(numeric, "integrate_ivp", keeping_rhs)
        fg.integrate_gamma(SPEC, (0.0, 1.0), fixed_step=0.01)
        fg.floquet_discriminant(SPEC, SPEC.lam1)
        gamma_rhs, floquet_rhs = seen
        for out in (gamma_rhs(0.0, [0.5, 0.1]), floquet_rhs(0.0, [0.5, 0.1, 1.0, 0.0, 0.0, 1.0])):
            assert [type(v) for v in out] == [float] * len(out)

    @settings(max_examples=200, deadline=None)
    @given(_narrow_bands())
    @example(fg.GapSpec(3.0, -0.999999999, -1.0, -0.9999999995))  # its expanded C(gamma0) rounds below zero
    def test_starts_anywhere_inside_a_narrow_band(self, spec):
        # C(gamma0) in product form is positive wherever GapSpec admits gamma0
        traj = fg.integrate_gamma(spec, (0.0, 0.01), step=0.01)
        assert traj.gammas[0, 0] == spec.gamma0
        assert traj.dgammas[0, 0] * spec.sign >= 0

    def test_downhill_start(self):
        spec = fg.GapSpec(2.0, 1.0, 0.0, 0.5, sign=-1)
        traj = fg.integrate_gamma(spec, (0.0, 3.0), step=0.01)
        assert traj.dgammas[0, 0] < 0

    @staticmethod
    def _numpy_rk4(rhs, y0, x_end, step):
        """Classical RK4 with numpy-array states, one new slope per node."""
        n = round(x_end / step)
        h = x_end / n
        x, y = 0.0, np.array(y0)
        k1 = np.asarray(rhs(x, y), dtype=float)
        xs, ys, fs = [x], [y], [k1]
        for _ in range(n):
            k2 = np.asarray(rhs(x + h / 2, y + h / 2 * k1), dtype=float)
            k3 = np.asarray(rhs(x + h / 2, y + h / 2 * k2), dtype=float)
            k4 = np.asarray(rhs(x + h, y + h * k3), dtype=float)
            y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
            x = x + h
            k1 = np.asarray(rhs(x, y), dtype=float)
            xs.append(x)
            ys.append(y)
            fs.append(k1)
        return np.array(xs), np.array(ys), np.array(fs)

    @pytest.mark.parametrize("form", ["tuple", "array"])
    def test_fixed_step_is_the_numpy_rk4_bit_for_bit(self, monkeypatch, form):
        dc = np.polyder(fg.c_poly(SPEC))

        def rhs(x, s):
            out = (s[1], 0.5 * np.polyval(dc, s[0]))
            return out if form == "tuple" else np.array(out)

        l1, l2, l3, g0 = SPEC.lam1, SPEC.lam2, SPEC.lam3, SPEC.gamma0
        y0 = [g0, math.sqrt(4.0 * (l1 - g0) * (l2 - g0) * (g0 - l3))]
        ref = self._numpy_rk4(rhs, y0, 12.0, 0.001)
        integrate, seen = numeric.integrate_ivp, []

        def keeping_ivp(*args, **kwargs):
            seen.append(integrate(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(numeric, "integrate_ivp", keeping_ivp)
        fg.integrate_gamma(SPEC, (0.0, 12.0), fixed_step=0.001)
        direct = integrate(rhs, 0.0, y0, 12.0, fixed_step=0.001)  # this rhs through the kernel
        for traj in (seen[0], direct):
            assert len(traj.xs) == 12001
            for got, want in zip((traj.xs, traj.ys, traj.fs), ref):
                assert np.array_equal(got, want)


class TestPeriod:
    def test_matches_complete_elliptic_integral(self):
        # T = 2 K(m) / sqrt(lam1 - lam3), m = (lam2 - lam3)/(lam1 - lam3)
        t = fg.period(SPEC)
        expected = 2 * sp_special.ellipk(0.5) / math.sqrt(2.0)
        assert t == pytest.approx(expected, rel=1e-10)

    def test_matches_trajectory_spacing(self):
        t = fg.period(SPEC)
        traj = fg.integrate_gamma(SPEC, (0.0, 3.2 * t), step=0.005)
        maxima = traj.turning_points("max")
        assert len(maxima) >= 2
        assert abs((maxima[1] - maxima[0]) - t) / t <= 1e-6

    def test_scaling_law(self):
        s = 4.0
        scaled = fg.GapSpec(s * 2.0, s * 1.0, 0.0, 0.5)
        assert fg.period(scaled) == pytest.approx(fg.period(SPEC) / math.sqrt(s), rel=1e-9)

    def test_degenerate_gap(self):
        with pytest.raises(ValueError):
            fg.period(fg.GapSpec(2.0, 1.0, 1.0 - 1e-13, 1.0 - 2e-13))

    @pytest.mark.parametrize(
        "lams",
        [
            (3.0, -0.999, -1.0),  # narrow band: lambda2 - lambda3 = 1e-3
            (3.0, -1.0 + 1e-9, -1.0),  # nearly collapsed band, T -> pi / sqrt(lam1 - lam3)
            (1.0, 0.999999, 0.0),  # narrow gap: the near-soliton limit
            (1.0, 1.0 - 1e-10, 0.0),
            (2.0, 1.0, 0.0),
        ],
    )
    def test_narrow_bands_and_gaps_match_scipy(self, lams):
        l1, l2, l3 = lams
        spec = fg.GapSpec(l1, l2, l3, 0.5 * (l2 + l3))
        expected = 2 * sp_special.ellipk((l2 - l3) / (l1 - l3)) / math.sqrt(l1 - l3)
        assert fg.period(spec) == pytest.approx(expected, rel=1e-12)

    def test_random_bands_match_scipy_without_bias(self):
        # Gauss-Kronrod constants carried to full double precision: the
        # period sits within 1e-15 of 2 K(m) / sqrt(lambda1 - lambda3), and
        # its errors are not all of one sign (15-digit constants put every
        # band about 3e-15 low)
        rng = np.random.default_rng(7)
        errors = []
        for _ in range(200):
            l3 = rng.uniform(-2.0, 1.0)
            l2 = l3 + rng.uniform(0.01, 2.0)
            l1 = l2 + rng.uniform(0.01, 2.0)
            expected = 2 * sp_special.ellipk((l2 - l3) / (l1 - l3)) / math.sqrt(l1 - l3)
            errors.append(fg.period(fg.GapSpec(l1, l2, l3, 0.5 * (l2 + l3))) / expected - 1.0)
        errors = np.array(errors)
        assert np.max(np.abs(errors)) <= 1e-15
        assert np.any(errors < 0) and np.any(errors > 0)


class TestTracePotential:
    def test_range_is_the_image_of_the_band(self):
        traj = fg.integrate_gamma(SPEC, (0.0, 12.0), step=0.005)
        u = fg.trace_potential(traj, SPEC)
        assert u.min() == pytest.approx(-3.0, abs=1e-5)
        assert u.max() == pytest.approx(-1.0, abs=1e-5)

    def test_periodicity(self):
        t = fg.period(SPEC)
        traj = fg.integrate_gamma(SPEC, (0.0, 2.2 * t), step=0.01)
        for x in np.linspace(0.0, t, 37):
            u0 = 2 * traj(float(x))[0] - SPEC.trace
            u1 = 2 * traj(float(x) + t)[0] - SPEC.trace
            assert abs(u1 - u0) <= 1e-6

    def test_band_structure_around_the_gap(self):
        # the single gap is the gamma band (lam3, lam2); [lam2, lam1] is a
        # stability band and everything above lam1 grows exponentially
        assert abs(fg.floquet_discriminant(SPEC, 0.5)) > 2.0 + 1e-3
        assert abs(fg.floquet_discriminant(SPEC, 1.5)) < 2.0 - 1e-3
        assert abs(fg.floquet_discriminant(SPEC, 2.5)) > 2.0 + 1e-3


def _bench_style_specs(count, seed):
    # bands drawn as the benchmark draws them: lambda3 in [-1, 1], width
    # lambda1 - lambda3 in [1, 1.5], lambda2 at a ratio in [0.05, 0.95]
    rng = np.random.default_rng(seed)
    specs = []
    for _ in range(count):
        lam3 = rng.uniform(-1.0, 1.0)
        width = rng.uniform(1.0, 1.5)
        lam2 = lam3 + rng.uniform(0.05, 0.95) * width
        gamma0 = lam3 + (lam2 - lam3) * rng.uniform(0.05, 0.95)
        specs.append(fg.GapSpec(lam3 + width, lam2, lam3, gamma0, 1 if rng.random() < 0.5 else -1))
    return specs


class TestFloquetDiscriminant:
    def test_one_integration_and_no_dense_output(self, monkeypatch):
        calls = {"ivp": 0, "dense": 0}
        integrate, dense = numeric.integrate_ivp, numeric.Trajectory.__call__

        def counting_ivp(*args, **kwargs):
            calls["ivp"] += 1
            return integrate(*args, **kwargs)

        def counting_dense(self, x):
            calls["dense"] += 1
            return dense(self, x)

        monkeypatch.setattr(numeric, "integrate_ivp", counting_ivp)
        monkeypatch.setattr(numeric.Trajectory, "__call__", counting_dense)
        for lam in SPEC.lams:
            before = calls["ivp"]
            fg.floquet_discriminant(SPEC, lam)
            assert calls["ivp"] == before + 1
        assert calls["dense"] == 0

    @pytest.mark.parametrize(
        "spec", _bench_style_specs(20, 1018) + [fg.GapSpec(3.0, -0.999, -1.0, -0.9995), SPEC]
    )
    def test_band_edges_to_2e_8(self, spec):
        for lam in spec.lams:
            assert abs(abs(fg.floquet_discriminant(spec, lam)) - 2.0) <= 2e-8


def _closed_form_gamma(spec, xs):
    """gamma, gamma' and gamma'' from scipy's sn: gamma = lambda3 + (lambda2 - lambda3) sn^2(w x + z0 | m)."""
    l1, l2, l3 = spec.lams
    m, w = (l2 - l3) / (l1 - l3), math.sqrt(l1 - l3)
    z0 = spec.sign * sp_special.ellipkinc(math.asin(math.sqrt((spec.gamma0 - l3) / (l2 - l3))), m)
    sn, cn, dn, _ = sp_special.ellipj(w * xs + z0, m)
    gamma = l3 + (l2 - l3) * sn**2
    dgamma = 2 * (l2 - l3) * w * sn * cn * dn
    ddgamma = 2 * (l2 - l3) * w**2 * (cn**2 * dn**2 - sn**2 * dn**2 - m * sn**2 * cn**2)
    return gamma, dgamma, ddgamma


class TestDubrovinChecks:
    def test_one_phase_quotient_is_the_shifted_potential(self):
        # identity (2): with phi = lambda - gamma, 2 phi phi_xx + C(lambda) - phi_x^2
        # is divisible by phi^2 with quotient 4 (lambda + u), on the closed-form gamma
        spec = fg.GapSpec(1.7, 0.9, 0.3, 0.5, sign=-1)
        xs = np.linspace(0.0, 10.0, 200)
        gamma, dgamma, ddgamma = _closed_form_gamma(spec, xs)
        c = fg.c_poly(spec)

        def division(g, dg, ddg):
            numerator = np.polyadd(c, [-2 * ddg, 2 * g * ddg - dg * dg])
            return np.polydiv(numerator, [1.0, -2 * g, g * g])

        for g, dg, ddg in zip(gamma, dgamma, ddgamma):
            quotient, remainder = division(g, dg, ddg)
            assert np.max(np.abs(remainder)) <= 1e-12
            assert quotient == pytest.approx([4.0, 4.0 * (2 * g - spec.trace)], abs=1e-12)
        assert max(np.max(np.abs(division(g, dg, ddg + 1e-6)[1])) for g, dg, ddg in zip(gamma, dgamma, ddgamma)) > 1e-12

    def test_item1_at_turning_points(self):
        t = fg.period(SPEC)
        traj = fg.integrate_gamma(SPEC, (0.0, 2.0 * t), step=0.005)
        c = fg.c_poly(SPEC)
        top = traj.turning_points("max")[0]
        state = traj(top)
        assert abs(np.polyval(c, state[0])) <= 1e-6
        assert abs(state[1]) <= 1e-6

    def test_perturbed_trajectory_fails(self):
        traj = fg.integrate_gamma(SPEC, (0.0, 6.0), step=0.02)
        c = fg.c_poly(SPEC)
        assert fg.dubrovin_checks(traj, c) <= 1e-8
        rng = np.random.default_rng(0)
        noisy = fg.RootTrajectory(traj.xs, traj.gammas + rng.normal(0, 1e-3, traj.gammas.shape), traj.dgammas)
        assert fg.dubrovin_checks(noisy, c) > 1e-6


class TestTurningPoints:
    @staticmethod
    def _reference(traj, kind):
        want_down = kind == "max"
        out = []
        d = traj.dgammas[:, 0]
        for i in range(len(traj.xs) - 1):
            if d[i] == 0.0:
                continue
            if (d[i] > 0 > d[i + 1]) if want_down else (d[i] < 0 < d[i + 1]):
                lo, hi = traj.xs[i], traj.xs[i + 1]
                for _ in range(80):
                    mid = 0.5 * (lo + hi)
                    if (traj(mid)[1] > 0) == want_down:
                        lo = mid
                    else:
                        hi = mid
                out.append(0.5 * (lo + hi))
        return out

    @pytest.mark.parametrize("kind", ["max", "min"])
    @pytest.mark.parametrize("fixed_step", [None, 0.001])
    def test_bit_identical_to_the_80_step_bisection(self, kind, fixed_step):
        traj = fg.integrate_gamma(SPEC, (0.0, 12.0), step=0.01, fixed_step=fixed_step)
        got = traj.turning_points(kind)
        assert len(got) >= 3
        assert got == self._reference(traj, kind)

    def test_one_dense_output_call_per_halving_pass(self, monkeypatch):
        traj = fg.integrate_gamma(SPEC, (0.0, 12.0), step=0.01)
        calls = []
        dense = numeric.Trajectory.__call__

        def counting_dense(self, x):
            calls.append(x)
            return dense(self, x)

        monkeypatch.setattr(numeric.Trajectory, "__call__", counting_dense)
        for kind in ("max", "min"):
            calls.clear()
            assert len(traj.turning_points(kind)) >= 3
            assert 0 < len(calls) <= 80


class TestPolynomialIdentity:
    def test_integration_constant_coefficients_are_frozen(self):
        # 4(lam + u) phi^2 + phi_x^2 - 2 phi phi_xx with phi = lam - gamma(x)
        # is the x-independent cubic with roots at the branch points
        traj = fg.integrate_gamma(SPEC, (0.0, 8.0), step=0.02)
        coeffs = []
        for idx in range(0, len(traj.xs), 25):
            g = traj.gammas[idx, 0]
            dg = traj.dgammas[idx, 0]
            ddg = 0.5 * np.polyval(np.polyder(fg.c_poly(SPEC)), g)  # the trajectory's gamma''
            u = 2 * g - SPEC.trace
            # polynomial in lam, descending: expand 4(lam+u)(lam-g)^2 + dg^2 + 2 ddg (lam - g)
            p = np.polymul([4.0, 4.0 * u], np.polymul([1.0, -g], [1.0, -g]))
            p = np.polyadd(p, [2 * ddg, dg**2 - 2 * ddg * g])
            coeffs.append(p)
        coeffs = np.array(coeffs)
        assert np.max(np.ptp(coeffs, axis=0)) <= 1e-6
        roots = sorted(np.roots(coeffs[0]).real)
        assert roots == pytest.approx([0.0, 1.0, 2.0], abs=1e-6)


class TestReport:
    CHECKS = [
        ("energy_invariant_drift", 1e-8), ("trajectory_vs_quadrature_phase", 1e-6),
        ("gamma_vs_elliptic", 1e-6), ("period_quadrature_vs_agm", 1e-12),
    ]

    def test_full_grid_passes_every_check(self):
        traj = fg.elliptic_trajectory(SPEC, np.arange(1201) * 0.01)
        rep = fg.report(SPEC, traj, fg.period(SPEC), None)
        assert list(rep) == ["period", "gamma_vs_elliptic_nodes", "checks"]
        assert rep["period"] == fg.period(SPEC)
        assert [(c["name"], c["tol"]) for c in rep["checks"]] == self.CHECKS
        assert all(c["pass"] for c in rep["checks"])

    def test_takes_the_period_from_the_caller(self, monkeypatch):
        traj = fg.elliptic_trajectory(SPEC, np.arange(1201) * 0.01)
        t = fg.period(SPEC)
        want = fg.report(SPEC, traj, t, None)
        monkeypatch.setattr(fg, "period", lambda *a, **k: pytest.fail("report recomputed the period"))
        assert fg.report(SPEC, traj, t, None) == want

    def test_grid_shorter_than_two_maxima(self):
        # T is about 2.62: [0, 2] spans no period, and every point is still judged
        traj = fg.elliptic_trajectory(SPEC, np.arange(201) * 0.01)
        rep = fg.report(SPEC, traj, fg.period(SPEC), None)
        assert all(c["pass"] for c in rep["checks"])
        assert rep["checks"][1]["value"] <= 1e-9

    @pytest.mark.parametrize("error", [1e-5, -1e-5])
    def test_a_wrong_period_fails_the_phase_check(self, error):
        traj = fg.elliptic_trajectory(SPEC, np.arange(1201) * 0.01)
        checks = fg.report(SPEC, traj, fg.period(SPEC) * (1 + error), None)["checks"]
        assert checks[0]["pass"]
        assert not checks[1]["pass"]
        assert not checks[3]["pass"]  # and the period against the AGM's

    def test_a_shifted_trajectory_fails_the_phase_check_only(self):
        # on the right energy but about a tenth of a period ahead; the
        # cross-check builds its own closed form from the spec, so it passes
        t = fg.period(SPEC)
        k = round(0.1 * t / 0.01)
        traj = fg.elliptic_trajectory(SPEC, np.arange(1301) * 0.01)
        ahead = fg.RootTrajectory(traj.xs[:1201], traj.gammas[k : k + 1201], traj.dgammas[k : k + 1201])
        checks = fg.report(SPEC, ahead, t, None)["checks"]
        assert [c["pass"] for c in checks] == [True, False, True, True]
        assert checks[1]["value"] > 0.1

    @pytest.mark.parametrize("fixed_step", [None, 0.001], ids=["adaptive", "rk4"])
    def test_phase_check_is_the_error_against_sn2(self, fixed_step):
        # the error in gamma relative to the band, read against scipy's sn^2,
        # of an integrated trajectory as of the closed form
        for spec in _bench_style_specs(20, 4242):
            traj = fg.integrate_gamma(spec, (0.0, 12.0), step=0.01, fixed_step=fixed_step)
            phase = fg.report(spec, traj, fg.period(spec), fixed_step)["checks"][1]["value"]
            sn2 = np.max(np.abs(traj.gammas[:, 0] - _closed_form_gamma(spec, traj.xs)[0])) / (spec.lam2 - spec.lam3)
            assert phase == pytest.approx(sn2, rel=1e-2)
            assert phase <= 1e-9  # the 1e-6 tolerance holds with 1000x to spare

    @pytest.mark.parametrize("fixed_step", [None, 0.001], ids=["adaptive", "rk4"])
    def test_cross_check_is_the_integrator_error_against_sn2(self, fixed_step):
        for spec in _bench_style_specs(10, 4243):
            t = fg.period(spec)
            rep = fg.report(spec, fg.elliptic_trajectory(spec, np.arange(1201) * 0.01), t, fixed_step)
            ivp = fg.integrate_gamma(spec, (0.0, t), step=t, fixed_step=fixed_step)._dense
            assert rep["gamma_vs_elliptic_nodes"] == len(ivp.xs)
            sn2 = np.max(np.abs(ivp.ys[:, 0] - _closed_form_gamma(spec, ivp.xs)[0])) / (spec.lam2 - spec.lam3)
            assert rep["checks"][2]["value"] == pytest.approx(sn2, rel=1e-2, abs=1e-13)
            assert rep["checks"][2]["value"] <= 1e-10

    @pytest.mark.parametrize("grid, steps", [("0:12:3", 9), ("0:2:0.5", 40), ("0:12:0.01", 2622)])
    def test_cross_check_spans_one_period_at_its_own_nodes(self, grid, steps):
        # RK4 at a tenth of the grid step over min(T, grid span), T = 2.62:
        # on 0:12:3 only x = 0 lies in the first period, yet 10 nodes are judged
        lo, hi, step = (float(v) for v in grid.split(":"))
        xs = lo + step * np.arange(round((hi - lo) / step) + 1)
        rep = fg.report(SPEC, fg.elliptic_trajectory(SPEC, xs), fg.period(SPEC), step / 10)
        assert rep["gamma_vs_elliptic_nodes"] == steps + 1

    @pytest.mark.parametrize(
        "specs, within",
        [
            (_bench_style_specs(20, 4244), 5e-15),
            # 1 - m = 1e-10: the quadrature, not the AGM, is 4.6e-13 off mpmath's 2 K(m) / w
            ([fg.GapSpec(1.0, 1.0 - 1e-10, 0.0, 0.5), fg.GapSpec(3.0, -0.999, -1.0, -0.9995)], 1e-12),
        ],
        ids=["bench", "near-degenerate"],
    )
    def test_period_check_reads_the_agm_against_the_quadrature(self, specs, within):
        for spec in specs:
            rep = fg.report(spec, fg.elliptic_trajectory(spec, [0.0, 1.0]), fg.period(spec), None)
            assert rep["checks"][3]["value"] <= within


class TestEllipticTrajectory:
    # m and 1 - m reach scipy exactly: the branch points are dyadic, so each
    # difference and m itself round nowhere (scipy takes m alone, and the
    # rounding of 1 - m near m = 1 would be the oracle's own error)
    @staticmethod
    def _spec(lam3_quarters, width, m, edge, near_top, sign):
        lam3 = lam3_quarters / 4
        width = round(width * 2**10) / 2**10
        m = round(m * 2**36) / 2**36
        lam1, lam2 = lam3 + width, lam3 + m * width
        band = lam2 - lam3
        assert band == m * width and band / (lam1 - lam3) == m
        gamma0 = lam2 - edge * band if near_top else lam3 + edge * band
        assume(lam3 < gamma0 < lam2)
        return fg.GapSpec(lam1, lam2, lam3, gamma0, sign)

    @settings(max_examples=150, deadline=None)
    @given(
        lam3_quarters=st.integers(-8, 8),
        width=st.floats(0.05, 5.0),
        m=st.one_of(st.floats(1e-6, 1 - 1e-5), st.floats(1e-6, 1e-2), st.floats(1 - 1e-2, 1 - 1e-5)),
        edge=st.one_of(st.floats(1e-9, 0.5), st.floats(1e-9, 1e-4)),
        near_top=st.booleans(),
        sign=st.sampled_from([1, -1]),
    )
    def test_kernel_matches_scipy(self, lam3_quarters, width, m, edge, near_top, sign):
        spec = self._spec(lam3_quarters, width, m, edge, near_top, sign)
        l1, l2, l3 = spec.lams
        m, band, w = (l2 - l3) / (l1 - l3), l2 - l3, math.sqrt(l1 - l3)
        k = sp_special.ellipk(m)
        assert abs(math.pi / (2 * fg._agm(spec)[0]) - k) <= 1e-13 * k
        phi = math.atan2(math.sqrt(spec.gamma0 - l3), math.sqrt(l2 - spec.gamma0))
        z0 = spec.sign * sp_special.ellipkinc(phi, m)
        assert abs(fg._start_phase(spec) - z0) <= 1e-13 * k
        xs = np.linspace(-6.0, 12.0, 181)
        traj = fg.elliptic_trajectory(spec, xs)
        sn, cn, dn, _ = sp_special.ellipj(w * (xs - xs[0]) + z0, m)
        gamma = l3 + band * sn**2
        # gamma is stored whole: a band far narrower than |gamma| keeps the rounding of gamma itself
        assert np.all(np.abs(traj.gammas[:, 0] - gamma) <= 1e-13 * band + 2 * np.spacing(np.abs(gamma)))
        assert np.max(np.abs(traj.dgammas[:, 0] - 2 * w * band * sn * cn * dn)) <= 1e-13 * band * w

    def test_starts_at_gamma0_with_the_sign_of_the_spec(self):
        for sign in (1, -1):
            spec = fg.GapSpec(1.7, 0.9, 0.3, 0.5, sign)
            traj = fg.elliptic_trajectory(spec, [2.0, 2.5])
            assert traj.gammas[0, 0] == pytest.approx(0.5, abs=1e-15)
            assert np.sign(traj.dgammas[0, 0]) == sign
            assert traj(2.0) == pytest.approx([traj.gammas[0, 0], traj.dgammas[0, 0]], abs=0)

    def test_xs_are_the_grid_bit_for_bit(self):
        xs = 1000.0 + 0.001 * np.arange(12001)
        assert np.array_equal(fg.elliptic_trajectory(SPEC, xs).xs, xs)

    def test_dense_output_is_the_closed_form(self):
        xs = np.linspace(0.0, 12.0, 1201)
        traj = fg.elliptic_trajectory(SPEC, xs)
        mid = 0.5 * (xs[:-1] + xs[1:])
        states = traj(mid)
        assert states.shape == (1200, 2)
        again = fg.elliptic_trajectory(SPEC, np.r_[xs[0], mid])
        assert np.array_equal(states[:, 0], again.gammas[1:, 0])
        assert np.array_equal(states[:, 1], again.dgammas[1:, 0])

    def test_turning_points_are_half_periods_apart(self):
        t = fg.period(SPEC)
        traj = fg.elliptic_trajectory(SPEC, np.arange(1201) * 0.01)
        maxima, minima = traj.turning_points("max"), traj.turning_points("min")
        assert len(maxima) >= 4 and len(minima) >= 4
        assert np.max(np.abs(np.diff(np.sort(maxima + minima)) - t / 2)) <= 1e-12

    def test_energy_identity_holds_to_rounding(self):
        for spec in _bench_style_specs(20, 4245) + [fg.GapSpec(4.0, 2.0, 0.0, 0.5), fg.GapSpec(1.0, 0.99999, 0.0, 0.5)]:
            traj = fg.elliptic_trajectory(spec, np.arange(1201) * 0.01)
            assert fg.dubrovin_checks(traj, fg.c_poly(spec)) <= 1e-13
