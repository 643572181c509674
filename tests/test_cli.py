import ast
import csv
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from riccatikit import cli
from riccatikit import expr as ex
from riccatikit import numeric
from riccatikit import riccati as rc
from riccatikit import soliton as so


def read_report(out_dir, command):
    with open(out_dir / f"{command}_report.json") as fh:
        return json.load(fh)


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def exit_code(argv):
    """Exit status of main, whether it returns it or argparse raises SystemExit."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


class TestSoliton:
    def test_one_soliton_run(self, tmp_path):
        code = cli.main([
            "soliton", "--k", "1", "--beta", "0", "--grid", "-10:10:0.01", "--out", str(tmp_path)
        ])
        assert code == 0
        rows = read_csv(tmp_path / "soliton.csv")
        assert rows[0].keys() == {"x", "u"}
        mid = [r for r in rows if abs(float(r["x"])) < 1e-9]
        assert float(mid[0]["u"]) == pytest.approx(-2.0, abs=1e-12)
        report = read_report(tmp_path, "soliton")
        assert all(c["pass"] for c in report["checks"])

    def test_deterministic_reruns_are_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            code = cli.main([
                "soliton", "--k", "2,1", "--beta", "0,0", "--grid", "-3:3:0.05", "--out", str(out)
            ])
            assert code == 0
            code = cli.main([
                "finite-gap", "--lambdas", "1.2,0.5,-0.1", "--gamma0", "0.2", "--sign", "-",
                "--grid", "0:8:0.01", "--deterministic", "--out", str(out)
            ])
            assert code == 0
        for name in ("soliton.csv", "finite_gap.csv", "finite_gap_report.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestKp:
    ARGS = ["kp", "--k", "2,1", "--beta", "0,0", "--grid", "-2:2:0.5", "--y", "0.5", "--t", "0.25"]

    def test_two_soliton_builds_the_tau_sum_once(self, tmp_path, monkeypatch):
        calls = []
        tau_sum = so._tau_sum
        monkeypatch.setattr(so, "_tau_sum", lambda *a: calls.append(a) or tau_sum(*a))
        monkeypatch.setattr(so, "kp_closed_form", lambda *args: pytest.fail("kp built the closed form"))
        assert cli.main(self.ARGS + ["--out", str(tmp_path)]) == 0
        assert len(calls) == 1
        monkeypatch.undo()
        report = read_report(tmp_path, "kp")
        spec = so.SolitonSpec((2.0, 1.0), (0.0, 0.0))
        assert report["transverse_term_max"] == so.pde_residual(spec, "kp", box=2.0, n=3).max_abs

    def test_nan_xt_residual_after_the_first_probe_fails(self, tmp_path, monkeypatch):
        # u_xxxx undefined for x >= 1: NaN at the probe x = 1.5 but not at
        # the first, x = -2
        tau_sum = so._tau_sum

        def faulty(spec, x, y, t, kdv):
            d = tau_sum(spec, x, y, t, kdv)
            return {**d, "u_xxxx": d["u_xxxx"] + np.where(x < 1, 0.0, np.nan)}

        monkeypatch.setattr(so, "_tau_sum", faulty)
        assert cli.main(self.ARGS + ["--out", str(tmp_path)]) == 3
        checks = {c["name"]: c for c in read_report(tmp_path, "kp")["checks"]}
        assert not checks["xt_flow_identity"]["pass"]

    def test_thirteen_wavenumbers_exit_2_before_any_work(self, tmp_path, monkeypatch, capsys):
        for name in ("_tau_sum", "kp_field", "solve_coefficients"):
            monkeypatch.setattr(so, name, lambda *a, name=name: pytest.fail(f"kp called {name}"))
        monkeypatch.setattr(cli, "parse_grid", lambda text: pytest.fail("kp parsed the grid"))
        k = ",".join(str(v) for v in range(13, 0, -1))
        argv = ["kp", "--k", k, "--beta", ",".join(["0"] * 13), "--out", str(tmp_path)]
        assert cli.main(argv) == 2
        assert "2^N = 8192" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestSolveRe:
    def test_singular_grid_point_is_nan(self, tmp_path):
        # phi' = phi^2 through phi1 = 0: the family is 1/(C - x), singular at x = C
        code = cli.main([
            "solve-re", "--a", "1", "--c", "0", "--phi1", "0", "--constants", "1,3",
            "--grid", "-2:2:0.5", "--out", str(tmp_path)
        ])
        assert code == 0
        rows = read_csv(tmp_path / "solve_re.csv")
        for r in rows:
            x = float(r["x"])
            if x == 1.0:
                assert r["phi_C1"] == "nan"
            else:
                assert float(r["phi_C1"]) == pytest.approx(1 / (1 - x), rel=1e-14)
            assert float(r["phi_C3"]) == pytest.approx(1 / (3 - x), rel=1e-14)

    def test_restricted_integrand_matches_the_point_loop(self, tmp_path):
        # phi' = -phi^2 + phi/(x + 2) through phi1 = 0: the family integrates
        # exp(log(x + 2)), which has no value for x < -2
        code = cli.main([
            "solve-re", "--a", "-1", "--b", "1/(x+2)", "--c", "0", "--phi1", "0", "--constants", "1",
            "--grid", "-5:5:0.25", "--out", str(tmp_path)
        ])
        assert code == 0
        eq = rc.RiccatiEq(-1, ex.parse_expression("1/(x+2)"), 0)
        sol = rc.general_from_particular(eq, ex.ZERO)(Fraction(1))
        rows = read_csv(tmp_path / "solve_re.csv")
        assert len(rows) == 41
        for r in rows:
            ref = sol.evaluate(x=float(r["x"]))
            if math.isnan(ref):
                assert r["phi_C1"] == "nan"
            else:
                assert float(r["phi_C1"]) == pytest.approx(ref, rel=1e-10)
        assert sum(r["phi_C1"] == "nan" for r in rows) == 13  # x = -5 .. -2

    @pytest.mark.parametrize("constants", ["1,1", "1,1.0000001", "2,0.5,2"])
    def test_constants_sharing_a_label_exit_2(self, tmp_path, capsys, constants):
        # both 1 and 1.0000001 print as C1 under :g, which named two columns phi_C1
        code = cli.main(["solve-re", "--a", "1", "--c", "0", "--phi1", "0", "--constants", constants,
                         "--out", str(tmp_path)])
        assert code == 2
        assert "same label" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestHermite:
    def test_polynomial_string(self, tmp_path):
        assert cli.main(["hermite", "--n", "2", "--out", str(tmp_path)]) == 0
        report = read_report(tmp_path, "hermite")
        assert report["polynomial"] == "4x^2-2"

    def test_first_polynomials(self, tmp_path):
        for n, text in ((0, "1"), (1, "2x"), (3, "8x^3-12x")):
            assert cli.main(["hermite", "--n", str(n), "--out", str(tmp_path)]) == 0
            assert read_report(tmp_path, "hermite")["polynomial"] == text

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    def test_nan_witness_residual_after_the_first_point_fails(self, tmp_path, monkeypatch):
        # a term that stays below 1e-300, with its derivative, while exp(x^3)
        # is finite and is sin(inf) = NaN past x = 8.92: only the last of the
        # witness sample points on [4, 9] see it
        z = ex.intpow(ex.X, 3)
        bad = ex.mul(ex.Real(1e-300), ex.sin(ex.exp(z)), ex.exp(ex.mul(-2, z)))
        hermite_polynomial = rc.hermite_polynomial

        def with_bad_term(n):
            omega, y = hermite_polynomial(n)
            return omega, ex.add(y, bad)

        monkeypatch.setattr(rc, "hermite_polynomial", with_bad_term)
        assert cli.main(["hermite", "--n", "2", "--out", str(tmp_path)]) == 3
        checks = {c["name"]: c for c in read_report(tmp_path, "hermite")["checks"]}
        assert not checks["riccati_witness_residual"]["pass"]

    @pytest.mark.parametrize("n", ["17", "25"])
    def test_degree_past_sixteen_exits_2(self, tmp_path, n):
        assert cli.main(["hermite", "--n", n, "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "hermite_report.json").exists()


class TestPoleSeries:
    @pytest.mark.parametrize("depth, has_line", [("0", False), ("1", False), ("2", True)])
    def test_fourth_order_line_only_once_a2_is_computed(self, tmp_path, depth, has_line):
        # a series this short misses the IVP check, so the exit status is 3
        assert cli.main(["pole-series", "--alpha", "1", "--depth", depth, "--out", str(tmp_path)]) == 3
        names = [c["name"] for c in read_report(tmp_path, "pole_series")["checks"]]
        assert ("fourth_order_line" in names) == has_line
        assert names[0] == "zeroth_coefficient_vanishes" and names[-1] == "series_vs_ivp_near_pole"


    def test_infinite_value_is_strict_json(self, tmp_path):
        # the series is far from the IVP near this pole: the check's value is inf
        assert cli.main(["pole-series", "--alpha", "-100", "--eps", "0", "--depth", "4", "--out", str(tmp_path)]) == 3
        report = _strict_json(tmp_path / "pole_series_report.json")
        assert report["checks"][-1]["value"] == "inf"


def _strict_json(path):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(path.read_text(), parse_constant=refuse)


def test_emit_json_writes_non_finite_floats_as_strings(tmp_path):
    path = tmp_path / "r.json"
    cli.emit_json(path, {"a": [math.inf, -math.inf, math.nan, 1.5], "b": {"c": (math.nan,)}, "d": 2})
    assert _strict_json(path) == {"a": ["inf", "-inf", "nan", 1.5], "b": {"c": ["nan"]}, "d": 2}


def count_evaluate_calls(monkeypatch):
    shapes = []
    evaluate = ex.Expression.evaluate

    def recording(self, **kw):
        shapes.append({k: np.shape(v) for k, v in kw.items()})
        return evaluate(self, **kw)

    monkeypatch.setattr(ex.Expression, "evaluate", recording)
    return shapes


def test_hermite_witness_is_one_array_evaluation(tmp_path, monkeypatch):
    shapes = count_evaluate_calls(monkeypatch)
    assert cli.main(["hermite", "--n", "6", "--out", str(tmp_path)]) == 0
    assert shapes == [{"x": (100,)}]


class TestFiniteGap:
    CHECKS = ["energy_invariant_drift", "trajectory_vs_quadrature_phase", "gamma_vs_elliptic", "period_quadrature_vs_agm"]

    def test_period_in_report(self, tmp_path):
        code = cli.main([
            "finite-gap", "--lambdas", "2,1,0", "--gamma0", "0.5",
            "--grid", "0:12:0.01", "--out", str(tmp_path)
        ])
        assert code == 0
        report = read_report(tmp_path, "finite_gap")
        assert report["period"] == pytest.approx(2.6220575542921198, rel=1e-12)  # scipy: 2 ellipk(0.5) / sqrt(2)
        assert [c["name"] for c in report["checks"]] == self.CHECKS
        assert all(c["pass"] for c in report["checks"])
        rows = read_csv(tmp_path / "finite_gap.csv")
        assert set(rows[0]) == {"x", "gamma", "u"}

    def test_numeric_failure_exit_code(self, tmp_path):
        # an absurdly coarse deterministic step fails the cross-check
        code = cli.main([
            "finite-gap", "--lambdas", "2,1,0", "--gamma0", "0.5",
            "--grid", "0:12:3", "--deterministic", "--out", str(tmp_path)
        ])
        assert code == 3
        report = read_report(tmp_path, "finite_gap")
        checks = {c["name"]: c for c in report["checks"]}
        assert [name for name, c in checks.items() if not c["pass"]] == ["gamma_vs_elliptic"]
        assert checks["gamma_vs_elliptic"]["value"] == pytest.approx(0.678, rel=0.05)
        assert report["gamma_vs_elliptic_nodes"] == 4  # round(T / 0.75) + 1, T = 2.62

    def test_coarse_fixed_steps_fail_the_cross_check_and_write_the_outputs(self, tmp_path):
        # fixed Dormand-Prince steps of 0.125 drift 3.11e-6 of the band off the
        # closed form within a period; the closed-form grid keeps its energy
        code = cli.main([
            "finite-gap", "--lambdas", "2,1,0", "--gamma0", "0.5",
            "--grid", "0:12:0.5", "--deterministic", "--out", str(tmp_path)
        ])
        assert code == 3
        report = read_report(tmp_path, "finite_gap")
        checks = {c["name"]: c for c in report["checks"]}
        assert list(checks) == self.CHECKS
        assert [name for name, c in checks.items() if not c["pass"]] == ["gamma_vs_elliptic"]
        assert checks["gamma_vs_elliptic"]["value"] == pytest.approx(3.11e-6, rel=0.05)
        assert report["gamma_vs_elliptic_nodes"] == 22  # round(T / 0.125) + 1, T = 2.62
        assert len(read_csv(tmp_path / "finite_gap.csv")) == 25

    @pytest.mark.parametrize("lambdas", [(2.0, 1.0, 0.0), (1.7, 0.9, 0.3), (5.0, 0.5, 0.0)])
    def test_deterministic_cross_check_converges_at_fifth_order(self, tmp_path, lambdas):
        # halving the grid step halves the fixed Dormand-Prince step: a fifth
        # order method divides the error by about 32, a fourth order one by 16
        argv = ["finite-gap", "--lambdas", ",".join(map(str, lambdas)), "--gamma0", str(0.5 * (lambdas[1] + lambdas[2])),
                "--deterministic"]
        gaps = []
        for step in ("0.4", "0.2", "0.1"):
            cli.main([*argv, "--grid", f"0:12:{step}", "--out", str(tmp_path / step)])
            gaps.append(read_report(tmp_path / step, "finite_gap")["checks"][2]["value"])
        ratios = [gaps[0] / gaps[1], gaps[1] / gaps[2]]
        assert min(ratios) >= 24, ratios

    def test_narrow_band_runs_and_passes(self, tmp_path):
        # lambda2 - lambda3 = 1e-3: the period quadrature used to divide by zero here
        code = cli.main([
            "finite-gap", "--lambdas", "3,-0.999,-1", "--gamma0", "-0.9995", "--out", str(tmp_path)
        ])
        assert code == 0
        report = read_report(tmp_path, "finite_gap")
        assert all(c["pass"] for c in report["checks"])
        assert report["period"] == pytest.approx(1.5708945153735456, rel=1e-12)  # scipy: ellipk(2.5e-4)

    @pytest.mark.parametrize("lambdas, grid", [("1,0.999,0", "0:12:0.01"), ("2,1,0", "0:2:0.01")])
    def test_grid_shorter_than_two_maxima_passes(self, tmp_path, lambdas, grid):
        # T = 9.68 and 2.62: neither grid holds two maxima, and every point is judged
        code = cli.main(["finite-gap", "--lambdas", lambdas, "--gamma0", "0.5", "--grid", grid, "--out", str(tmp_path)])
        assert code == 0
        checks = {c["name"]: c for c in read_report(tmp_path, "finite_gap")["checks"]}
        assert checks["trajectory_vs_quadrature_phase"]["value"] <= 1e-7

    def test_near_soliton_integrator_error_fails_the_cross_check(self, tmp_path):
        # lambda1 - lambda2 = 1e-5: gamma lingers at its flat maximum, and over
        # 12 < T = 14.3 the integrator drifts about 1e-4 of the band off the
        # closed form; the closed-form grid itself holds its phase
        code = cli.main(["finite-gap", "--lambdas", "1,0.99999,0", "--gamma0", "0.5", "--grid", "0:12:0.01",
                         "--out", str(tmp_path)])
        assert code == 3
        checks = {c["name"]: c for c in read_report(tmp_path, "finite_gap")["checks"]}
        assert [name for name, c in checks.items() if not c["pass"]] == ["gamma_vs_elliptic"]
        assert checks["gamma_vs_elliptic"]["value"] == pytest.approx(1.15e-4, rel=0.05)
        assert checks["trajectory_vs_quadrature_phase"]["value"] <= 1e-13

    def test_narrow_gap_passes_over_one_period(self, tmp_path):
        # T = 9.68 < 30: the cross-check stops after one period, where the
        # integrator is 2.4e-8 of the band off (over the whole grid, 2.9e-6)
        code = cli.main(["finite-gap", "--lambdas", "1,0.999,0", "--gamma0", "0.5", "--grid", "0:30:0.01",
                         "--out", str(tmp_path)])
        assert code == 0
        checks = {c["name"]: c for c in read_report(tmp_path, "finite_gap")["checks"]}
        assert checks["gamma_vs_elliptic"]["value"] == pytest.approx(2.4e-8, rel=0.05)

    def test_wide_band_keeps_its_energy_between_the_nodes(self, tmp_path):
        # lambda1 - lambda3 = 4: the closed form holds gamma'^2 = C(gamma) to rounding at
        # every grid point, with no integrator nodes to fall between
        code = cli.main(["finite-gap", "--lambdas", "4,2,0", "--gamma0", "0.5", "--out", str(tmp_path)])
        assert code == 0
        checks = {c["name"]: c for c in read_report(tmp_path, "finite_gap")["checks"]}
        assert checks["energy_invariant_drift"]["value"] <= 1e-12

    @pytest.mark.parametrize("grid", ["1000:1012:0.001", "5:17:0.01", "0:12:0.01", "-3:4:0.7"])
    def test_csv_x_is_the_parsed_grid(self, tmp_path, grid):
        code = cli.main(["finite-gap", "--lambdas", "2,1,0", "--gamma0", "0.5", "--grid", grid, "--out", str(tmp_path)])
        assert code == 0
        xs = np.array([float(r["x"]) for r in read_csv(tmp_path / "finite_gap.csv")])
        assert np.array_equal(xs, cli.parse_grid(grid))

    def test_deterministic_picks_only_the_cross_checks_integrator(self, tmp_path):
        argv = ["finite-gap", "--lambdas", "1.2,0.5,-0.1", "--gamma0", "0.2", "--sign", "-", "--grid", "0:8:0.01"]
        out = {}
        for name, extra in (("adaptive", []), ("fixed", ["--deterministic"])):
            assert cli.main([*argv, *extra, "--out", str(tmp_path / name)]) == 0
            out[name] = ((tmp_path / name / "finite_gap.csv").read_bytes(), read_report(tmp_path / name, "finite_gap"))
        assert out["adaptive"][0] == out["fixed"][0]
        adaptive, fixed = out["adaptive"][1], out["fixed"][1]
        # only the cross-check's step policy differs: adaptive steps, or fixed
        # steps of a quarter of the grid step
        assert adaptive["checks"][2]["value"] != fixed["checks"][2]["value"]
        assert adaptive["gamma_vs_elliptic_nodes"] < fixed["gamma_vs_elliptic_nodes"]
        for rep in (adaptive, fixed):
            del rep["checks"][2]["value"], rep["gamma_vs_elliptic_nodes"]
        assert adaptive == fixed


class TestSeries:
    def test_f_coefficients(self, tmp_path):
        assert cli.main(["series", "--what", "f", "--m", "2", "--depth", "1", "--out", str(tmp_path)]) == 0
        report = read_report(tmp_path, "series")
        assert report["coefficients"]["f_0"] == "1/2*u_1"
        assert report["coefficients"]["f_1"] == "1/2*u_2 - 1/4*u_1' - 1/8*u_1^2"

    def test_h_coefficients(self, tmp_path):
        assert cli.main(["series", "--what", "h", "--m", "1", "--depth", "2", "--out", str(tmp_path)]) == 0
        report = read_report(tmp_path, "series")
        assert report["coefficients"]["h_1"] == "1/2*u"

    def test_zeta_chain(self, tmp_path):
        assert cli.main(["series", "--what", "zeta", "--depth", "1", "--out", str(tmp_path)]) == 0
        report = read_report(tmp_path, "series")
        assert report["coefficients"]["zeta_1"] == "-tanh(x)"


class TestSchwarz:
    def test_interval_holding_a_pole_passes(self, tmp_path):
        # x = 1.5703 sits next to the pole of tan at pi/2: the gap is judged
        # relative to the Schwarzian's terms, about 1.7e7 there
        assert cli.main(["schwarz", "--phi", "tan(x)", "--grid", "0:3:0.5", "--out", str(tmp_path)]) == 0
        (check,) = read_report(tmp_path, "schwarz")["checks"]
        assert check["value"] <= 1e-12


class TestValidation:
    def test_bad_grid_exits_2(self, tmp_path):
        assert cli.main(["soliton", "--k", "1", "--beta", "0", "--grid", "5:1:0.1", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("grid", ["0:1e308:1e-300", "0:1e12:1e-3"])
    def test_grid_past_the_point_limit_exits_2(self, tmp_path, grid):
        # the first point count overflows an int, the second would allocate 7 PiB
        assert cli.main(["schwarz", "--phi", "x", "--grid", grid, "--out", str(tmp_path)]) == 2

    def test_grid_limit_counts_points(self):
        assert cli.parse_grid("0:0.999999:1e-6").size == cli.MAX_GRID_POINTS
        with pytest.raises(cli.ConfigError):
            cli.parse_grid("0:1:1e-6")

    def test_bad_wavenumbers_exit_2(self, tmp_path):
        assert cli.main(["soliton", "--k", "1,2", "--beta", "0,0", "--out", str(tmp_path)]) == 2

    def test_no_command_exits_2(self):
        assert cli.main([]) == 2

    def test_bad_expression_exits_2(self, tmp_path):
        assert cli.main(["schwarz", "--phi", "tan(x", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["schwarz", "--phi", "1/0"],
            ["transform", "--a", "0^-1"],
            ["series", "--what", "zeta", "--u", "1/(x-x)"],
            ["pole-series", "--alpha", "1/0"],
        ],
    )
    def test_constant_division_by_zero_exits_2(self, tmp_path, argv):
        assert cli.main([*argv, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("depth", ["0", "-2"])
    def test_zeta_depth_below_one_exits_2(self, tmp_path, depth):
        assert cli.main(["series", "--what", "zeta", "--depth", depth, "--out", str(tmp_path)]) == 2

    def test_negative_pole_series_depth_exits_2(self, tmp_path):
        assert cli.main(["pole-series", "--alpha", "1", "--depth", "-3", "--out", str(tmp_path)]) == 2

    def test_empty_constants_list_exits_2(self, tmp_path):
        argv = ["solve-re", "--a", "1", "--c", "0", "--phi1", "0", "--constants", ",", "--out", str(tmp_path)]
        assert cli.main(argv) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["kp", "--k", "1", "--beta", "0", "--y", "inf"],
            ["solve-re", "--a", "1", "--c", "0", "--phi1", "0", "--constants", "inf"],
            ["schwarz", "--phi", "x", "--grid", "0:inf:0.1"],
            ["soliton", "--k", "inf", "--beta", "0"],
            ["soliton", "--k", "1", "--beta", "nan"],
            ["finite-gap", "--lambdas", "inf,1,0", "--gamma0", "0.5"],
            ["pole-series", "--alpha", "inf"],
            ["pole-series", "--alpha", "nan"],
            ["pole-series", "--alpha", "1e400"],
            ["pole-series", "--alpha", "1", "--eps", "1e400"],
        ],
    )
    def test_non_finite_number_exits_2(self, tmp_path, argv):
        assert exit_code([*argv, "--out", str(tmp_path)]) == 2
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["solve-re", "--a", "-1", "--c", "t^2+1", "--phi1", "x"], "t"),
            (["transform", "--a", "t"], "t"),
            (["schwarz", "--phi", "tan(t)"], "t"),
            (["series", "--what", "zeta", "--u", "-2/cosh(t)^2"], "t"),
            (["solve-re", "--a", "0", "--b", "t", "--c", "1"], "t"),
            (["transform", "--a", "1", "--beta", "y"], "y"),  # y would cancel in the round trip
        ],
    )
    def test_expression_in_another_variable_exits_2(self, tmp_path, capsys, argv, name):
        assert exit_code([*argv, "--out", str(tmp_path)]) == 2
        assert f"x is the only variable, got {name}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestConfigFile:
    def test_config_supplies_flags(self, tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({
            "command": "hermite", "n": 2, "out": str(tmp_path)
        }))
        assert cli.main(["--config", str(cfg)]) == 0
        assert read_report(tmp_path, "hermite")["polynomial"] == "4x^2-2"

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"command": "hermite", "n": 2, "out": str(tmp_path)}))
        assert cli.main(["--config", str(cfg), "hermite", "--n", "3"]) == 0
        assert read_report(tmp_path, "hermite")["polynomial"] == "8x^3-12x"


class TestParser:
    """One parser per process: parsing, --config included, never changes it."""

    def usage_error(self, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        return exc.value.code == 2

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_config_values_do_not_leak_into_later_calls(self, tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"command": "hermite", "n": 2}))
        assert cli.main(["--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert self.usage_error(["hermite", "--out", str(tmp_path)])  # --n is required again

    def test_deterministic_is_a_finite_gap_flag_only(self, tmp_path):
        assert self.usage_error(["soliton", "--k", "1", "--beta", "0", "--deterministic", "--out", str(tmp_path)])
        for name, action in cli.build_parser()._subparsers._group_actions[0].choices.items():
            flags = {s for a in action._actions for s in a.option_strings}
            assert ("--deterministic" in flags) == (name == "finite-gap")

    def test_unknown_config_key_is_a_usage_error(self, tmp_path):
        for key in ("order", "o"):  # "o" is a prefix of --out, not a flag
            cfg = tmp_path / "job.json"
            cfg.write_text(json.dumps({"command": "hermite", "n": 2, key: 3, "out": str(tmp_path)}))
            assert self.usage_error(["--config", str(cfg)])

    def test_flags_are_not_abbreviated(self, tmp_path):
        assert self.usage_error(["hermite", "--n", "2", "--o", str(tmp_path)])
        assert self.usage_error(["schwarz", "--phi", "tan(x)", "--gr", "-1:1:0.5", "--out", str(tmp_path)])

    def test_dispatch_sees_a_rebound_handler(self, tmp_path, monkeypatch):
        assert cli.main(["hermite", "--n", "2", "--out", str(tmp_path)]) == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_hermite", lambda args: seen.append(args.n) or 0)
        assert cli.main(["hermite", "--n", "3", "--out", str(tmp_path)]) == 0
        assert seen == [3]

    def test_unknown_suite_is_a_usage_error(self, tmp_path):
        assert self.usage_error(["verify", "--suite", "kdv", "--out", str(tmp_path)])

    def test_unreadable_config_exits_2(self, tmp_path):
        assert cli.main(["--config", str(tmp_path / "missing.json")]) == 2
        cfg = tmp_path / "list.json"
        cfg.write_text("[1, 2]")
        assert cli.main(["--config", str(cfg)]) == 2

    def test_config_booleans_switch_a_flag(self, tmp_path):
        argv = ["finite-gap", "--lambdas", "1.2,0.5,-0.1", "--gamma0", "0.2", "--grid", "0:8:0.01"]
        runs = {}
        for name, extra, cfg in (("flag", ["--deterministic"], {}), ("true", [], {"deterministic": True}),
                                 ("plain", [], {}), ("false", [], {"deterministic": False}),
                                 ("null", [], {"deterministic": None})):
            (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
            out = tmp_path / name
            assert cli.main(["--config", str(tmp_path / f"{name}.json"), *argv, *extra, "--out", str(out)]) == 0
            runs[name] = [(out / f).read_bytes() for f in ("finite_gap.csv", "finite_gap_report.json")]
        assert runs["true"] == runs["flag"]
        assert runs["false"] == runs["null"] == runs["plain"] != runs["flag"]


class TestEmission:
    def test_empty_table_writes_header_only(self, tmp_path):
        path = tmp_path / "t.csv"
        cli.emit_csv(path, [("x", []), ("u", [])])
        assert path.read_text() == "x,u\n"

    def test_number_formatting(self, tmp_path):
        path = tmp_path / "t.csv"
        cli.emit_csv(path, [("x", [1 / 3])])
        assert path.read_text().splitlines()[1] == "%.17g" % (1 / 3)

    @pytest.mark.parametrize("columns", [
        [("x", [0.0, -0.0, math.nan, math.inf, -math.inf, 1e-310, 2.5e300]),
         ("u", [1 / 3, -2.0, 7, -math.nan, 0.1, -1e-20, 123456789.125])],
        [("x", [math.nan, -0.0, 1 / 7])],
        [("x", []), ("u", []), ("v", [])],
        [("x", np.linspace(-10, 10, 2001)), ("u", np.tanh(np.linspace(-10, 10, 2001)))],
    ], ids=["specials", "one_column", "zero_rows", "soliton_size"])
    def test_bytes_match_the_row_by_row_writer(self, tmp_path, columns):
        path = tmp_path / "t.csv"
        cli.emit_csv(path, columns)
        # the reference: one % per row over Python floats
        values = [np.asarray(c[1], dtype=float).tolist() for c in columns]
        row = ",".join(["%.17g"] * len(columns)) + "\n"
        expected = ",".join(c[0] for c in columns) + "\n" + "".join(row % r for r in zip(*values))
        assert path.read_bytes() == expected.encode()

    def test_ragged_table_rejected(self, tmp_path):
        with pytest.raises(cli.ConfigError):
            cli.emit_csv(tmp_path / "t.csv", [("x", [1.0]), ("u", [])])

    def test_report_schema(self, tmp_path):
        assert cli.main(["transform", "--a", "1", "--beta", "x", "--out", str(tmp_path)]) == 0
        report = read_report(tmp_path, "transform")
        for c in report["checks"]:
            assert set(c) == {"name", "value", "tol", "pass"}


class TestTransform:
    def test_inversion(self, tmp_path):
        code = cli.main([
            "transform", "--a", "x", "--b", "2", "--c", "cosh(x)",
            "--alpha", "0", "--beta", "1", "--gamma", "1", "--delta", "0",
            "--out", str(tmp_path),
        ])
        assert code == 0
        report = read_report(tmp_path, "transform")
        assert report["output"]["a"] == "-cosh(x)"
        assert report["output"]["b"] == "-2"
        assert report["output"]["c"] == "-x"


class TestVerify:
    def test_full_suite_passes(self, tmp_path):
        assert cli.main(["verify", "--out", str(tmp_path)]) == 0
        report = read_report(tmp_path, "verify")
        assert len(report["checks"]) >= 15
        assert all(c["pass"] for c in report["checks"])

    SOLITON_CHECKS = {
        f"{name}_n{n}"
        for n in (1, 2)
        for name in ("a1_limit_plus_infinity", "a1_limit_minus_infinity", "decay_at_far_field",
                     "wronskian_polynomial_match", "transparency_residual", "closed_form_match")
    } | {"interpolation_determinant_sign_constant", "zeta1_equals_a1", "kdv_density_time_drift"}
    FINITEGAP_CHECKS = {"energy_invariant_drift", "trajectory_vs_quadrature_phase", "gamma_vs_elliptic",
                        "period_quadrature_vs_agm", "floquet_band_edge"}
    SUITE_CHECKS = {
        "symbolic": {"series_f0_is_half_u1", "series_h1_is_half_u", "triangular_system_residual_orders_m2",
                     "order_matching_residual_m1", "leibniz_rule_exact", "derivative_vs_central_difference"},
        "riccati": {"solution_transport", "ladder_reaches_x_plus_1_over_x", "hermite_recurrence_vs_derivative_route",
                    "kovalevskii_n3_integral_drift"},
        "schwarzian": {"schwarzian_mobius_invariance", "product_solution_residual", "first_integral_is_one"},
        "soliton": SOLITON_CHECKS,
        "finitegap": FINITEGAP_CHECKS,
    }

    @pytest.mark.parametrize("suite", ["symbolic", "riccati", "schwarzian", "soliton", "finitegap"])
    def test_suite_check_names(self, tmp_path, suite):
        assert cli.main(["verify", "--suite", suite, "--out", str(tmp_path)]) == 0
        names = [c["name"] for c in read_report(tmp_path, "verify")["checks"]]
        assert len(names) == len(set(names))
        assert set(names) == self.SUITE_CHECKS[suite]

    def test_singular_interpolation_matrix_fails_the_sign_check(self, tmp_path, monkeypatch):
        system_matrix = so.system_matrix

        def singular_at_one_point(spec, x):
            m, rhs = system_matrix(spec, x)
            if np.ndim(x):
                m[len(m) // 2] = 0.0  # determinant sign 0 at one interior point
            return m, rhs

        monkeypatch.setattr(so, "system_matrix", singular_at_one_point)
        assert cli.main(["verify", "--suite", "soliton", "--out", str(tmp_path)]) == 3
        checks = {c["name"]: c for c in read_report(tmp_path, "verify")["checks"]}
        assert not checks["interpolation_determinant_sign_constant"]["pass"]

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    def test_nan_derivative_after_the_first_point_fails(self, tmp_path, monkeypatch):
        # a term far below the tolerance that overflows to inf - inf, so NaN,
        # for x > 1.31: the suite's first probe is x = 0.17, later ones reach 2
        e5x = ex.exp(ex.mul(5, ex.X))
        bad = ex.mul(ex.Real(1e-300), ex.sub(ex.exp(e5x), ex.exp(ex.add(e5x, 1))))
        diff = ex.diff
        monkeypatch.setattr(ex, "diff", lambda e, order=1: ex.add(diff(e, order), bad))
        assert cli.main(["verify", "--suite", "symbolic", "--out", str(tmp_path)]) == 3
        checks = {c["name"]: c for c in read_report(tmp_path, "verify")["checks"]}
        assert not checks["derivative_vs_central_difference"]["pass"]
        assert sum(not c["pass"] for c in checks.values()) == 1

    def test_derivative_check_is_one_array_evaluation_per_expression(self, tmp_path, monkeypatch):
        shapes = count_evaluate_calls(monkeypatch)
        assert cli.main(["verify", "--suite", "symbolic", "--out", str(tmp_path)]) == 0
        assert shapes == [{"x": (8,)}] * 3

    def test_nan_density_at_a_later_time_fails(self, tmp_path, monkeypatch):
        quadrature = numeric.quadrature
        integrals = []

        def nan_at_the_second_time(f, a, b, **kw):
            value = quadrature(f, a, b, **kw)
            if (a, b) == (-40, 40):
                integrals.append(value)
                if len(integrals) == 2:
                    return float("nan")
            return value

        monkeypatch.setattr(numeric, "quadrature", nan_at_the_second_time)
        assert cli.main(["verify", "--suite", "soliton", "--out", str(tmp_path)]) == 3
        assert len(integrals) == 3
        checks = {c["name"]: c for c in read_report(tmp_path, "verify")["checks"]}
        assert not checks["kdv_density_time_drift"]["pass"]
        assert sum(not c["pass"] for c in checks.values()) == 1


def test_cli_is_wiring_only():
    """Checks are built by the library: no handler but cmd_verify builds one, and cli uses no private library name."""
    tree = ast.parse(Path(cli.__file__).read_text())
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith("cmd_") and fn.name != "cmd_verify":
            called = {getattr(node.func, "id", getattr(node.func, "attr", None))
                      for node in ast.walk(fn) if isinstance(node, ast.Call)}
            assert "check" not in called, fn.name
    private = [
        f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in ("rc", "sw", "se", "so", "fg", "ex", "numeric") and node.attr.startswith("_")
    ]
    assert private == []


def test_cli_import_loads_no_test_only_module():
    """Independent oracles stay test-only, and numpy.polynomial stays out of start-up time."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = (
        "import sys, riccatikit.cli; "
        "print([m for m in ('scipy', 'sympy', 'mpmath', 'hypothesis', 'numpy.polynomial') if m in sys.modules])"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
