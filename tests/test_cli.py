import csv
import json
from fractions import Fraction

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
                "soliton", "--k", "2,1", "--beta", "0,0", "--grid", "-3:3:0.05",
                "--deterministic", "--out", str(out)
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

    def test_two_soliton_builds_the_closed_form_once(self, tmp_path, monkeypatch):
        calls = []
        closed = so.kp_closed_form
        monkeypatch.setattr(so, "kp_closed_form", lambda spec: calls.append(spec) or closed(spec))
        assert cli.main(self.ARGS + ["--out", str(tmp_path)]) == 0
        assert len(calls) == 1
        monkeypatch.undo()
        report = read_report(tmp_path, "kp")
        spec = so.SolitonSpec((2.0, 1.0), (0.0, 0.0))
        assert report["transverse_term_max"] == so.pde_residual(spec, "kp", box=2.0, n=3).max_abs

    def test_nan_xt_residual_after_the_first_probe_fails(self, tmp_path, monkeypatch):
        # a term far below the tolerance where it is defined and undefined
        # for x >= 1: NaN at the probe x = 1.5 but not at the first, x = -2
        closed = so.kp_closed_form
        bad = ex.mul(ex.Real(1e-300), ex.log(ex.sub(1, ex.Var("x"))))
        monkeypatch.setattr(so, "kp_closed_form", lambda spec: ex.add(closed(spec), bad))
        assert cli.main(self.ARGS + ["--out", str(tmp_path)]) == 3
        checks = {c["name"]: c for c in read_report(tmp_path, "kp")["checks"]}
        assert not checks["xt_flow_identity"]["pass"]


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
            try:
                ref = sol.evaluate(x=float(r["x"]))
            except ex.EvalDomainError:
                assert r["phi_C1"] == "nan"
            else:
                assert float(r["phi_C1"]) == pytest.approx(ref, rel=1e-10)
        assert sum(r["phi_C1"] == "nan" for r in rows) == 13  # x = -5 .. -2


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
        z = ex.intpow(ex.Var("x"), 3)
        bad = ex.mul(ex.Real(1e-300), ex.sin(ex.exp(z)), ex.exp(ex.mul(-2, z)))
        hermite_polynomial = rc.hermite_polynomial

        def with_bad_term(n):
            omega, y = hermite_polynomial(n)
            return omega, ex.add(y, bad)

        monkeypatch.setattr(rc, "hermite_polynomial", with_bad_term)
        assert cli.main(["hermite", "--n", "2", "--out", str(tmp_path)]) == 3
        checks = {c["name"]: c for c in read_report(tmp_path, "hermite")["checks"]}
        assert not checks["riccati_witness_residual"]["pass"]


class TestFiniteGap:
    def test_period_in_report(self, tmp_path):
        code = cli.main([
            "finite-gap", "--lambdas", "2,1,0", "--gamma0", "0.5",
            "--grid", "0:12:0.01", "--out", str(tmp_path)
        ])
        assert code == 0
        report = read_report(tmp_path, "finite_gap")
        assert report["period"] == pytest.approx(report["trajectory_period"], rel=1e-6)
        assert all(c["pass"] for c in report["checks"])
        rows = read_csv(tmp_path / "finite_gap.csv")
        assert set(rows[0]) == {"x", "gamma", "u"}

    def test_numeric_failure_exit_code(self, tmp_path):
        # an absurdly coarse deterministic step breaks the energy invariant
        code = cli.main([
            "finite-gap", "--lambdas", "2,1,0", "--gamma0", "0.5",
            "--grid", "0:12:3", "--deterministic", "--out", str(tmp_path)
        ])
        assert code == 3

    def test_narrow_band_runs_and_passes(self, tmp_path):
        # lambda2 - lambda3 = 1e-3: the period quadrature used to divide by zero here
        code = cli.main([
            "finite-gap", "--lambdas", "3,-0.999,-1", "--gamma0", "-0.9995", "--out", str(tmp_path)
        ])
        assert code == 0
        report = read_report(tmp_path, "finite_gap")
        assert all(c["pass"] for c in report["checks"])
        assert report["period"] == pytest.approx(1.5708945153735456, rel=1e-12)  # scipy: ellipk(2.5e-4)


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


class TestValidation:
    def test_bad_grid_exits_2(self, tmp_path):
        assert cli.main(["soliton", "--k", "1", "--beta", "0", "--grid", "5:1:0.1", "--out", str(tmp_path)]) == 2

    def test_bad_wavenumbers_exit_2(self, tmp_path):
        assert cli.main(["soliton", "--k", "1,2", "--beta", "0,0", "--out", str(tmp_path)]) == 2

    def test_no_command_exits_2(self):
        assert cli.main([]) == 2

    def test_bad_expression_exits_2(self, tmp_path):
        assert cli.main(["schwarz", "--phi", "tan(x", "--out", str(tmp_path)]) == 2


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


class TestEmission:
    def test_empty_table_writes_header_only(self, tmp_path):
        path = tmp_path / "t.csv"
        cli.emit_csv(path, [("x", []), ("u", [])])
        assert path.read_text() == "x,u\n"

    def test_number_formatting(self, tmp_path):
        path = tmp_path / "t.csv"
        cli.emit_csv(path, [("x", [1 / 3])])
        assert path.read_text().splitlines()[1] == "%.17g" % (1 / 3)

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
        e5x = ex.exp(ex.mul(5, ex.Var("x")))
        bad = ex.mul(ex.Real(1e-300), ex.sub(ex.exp(e5x), ex.exp(ex.add(e5x, 1))))
        diff = ex.diff
        monkeypatch.setattr(ex, "diff", lambda e, var, order=1: ex.add(diff(e, var, order), bad))
        assert cli.main(["verify", "--suite", "symbolic", "--out", str(tmp_path)]) == 3
        checks = {c["name"]: c for c in read_report(tmp_path, "verify")["checks"]}
        assert not checks["derivative_vs_central_difference"]["pass"]
        assert sum(not c["pass"] for c in checks.values()) == 1

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
