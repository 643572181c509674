"""Tests of the benchmark itself (not part of the library suite).

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import jobs  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


# ---------------------------------------------------------------------------
# BENCHMARK.json and the metric lists agree


def test_benchmark_json_declares_what_the_benchmark_prints():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert BENCHMARK["command"] == ["python3", "bench/run.py"]
    assert BENCHMARK["paths"] == ["bench"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(jobs.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == spans.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


# ---------------------------------------------------------------------------
# smoke runs print every declared metric with its unit


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == (1 + trace) * run.SMOKE_JOBS
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], (int, float))
        assert any(line.startswith(f"{m['name']} ") and f" {m['unit']}" in line for line in lines[:-1])
    if not trace:
        for name in ("setup_s", "jobs_per_s", "job_s_p50", "job_s_tail", "peak_rss_mb"):
            assert result["metrics"][name]["value"] > 0
        assert any("fail_frac" in line and "attempted" in line for line in lines)
        tail_line = next(line for line in lines if line.startswith("job_s_tail "))
        assert "(p" in tail_line or "median" in tail_line
    assert any("no privileged tracing" in line for line in lines)


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "soliton_grid", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "riccatikit" in proc.stderr
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


# ---------------------------------------------------------------------------
# oracles


def test_oracle_self_check_passes():
    assert oracles.self_check(ROOT / "src") == []


def _record(output):
    return {"id": "t", "status": 0, "output": output}


def _soliton_output(job):
    from riccatikit import soliton as so

    xs = np.linspace(-10.0, 10.0, 21)
    beta = job["beta"]
    if job["kind"] == "kp":
        return {"x": list(xs), "u": [so.kp_field(so.SolitonSpec(job["k"], beta), x, job["y"], job["t"]) for x in xs]}
    tp = so.TransparentPotential(so.SolitonSpec(job["k"], beta))
    return {"x": list(xs), "u": [tp.u_at(x) for x in xs]}


def _finitegap_output(job):
    from riccatikit import finitegap as fg

    spec = fg.GapSpec(*job["lams"], job["gamma0"], 1 if job["sign"] == "+" else -1)
    traj = fg.integrate_gamma(spec, (0.0, 12.0), step=0.05)
    return {"x": list(traj.xs), "gamma": list(traj.gammas[:, 0])}


def _schwarz_output(job):
    from riccatikit import expr as ex
    from riccatikit import schwarzian as sw

    s = sw.schwarz(ex.parse_expression(job["phi"]))
    xs = np.linspace(-1.0, 1.0, 21)
    return {"x": list(xs), "schwarzian": [s.evaluate(x=float(x)) for x in xs]}


def _perturb(output, key, delta):
    out = dict(output)
    values = list(out[key])
    values[len(values) // 2] += delta
    out[key] = values
    return out


CASES = [
    ({"id": "t", "kind": "soliton", "k": [2.5, 1.2, 0.6], "beta": [0.3, -0.4, 0.1], "argv": ["soliton"]},
     _soliton_output, "u", 1e-3),
    ({"id": "t", "kind": "kp", "k": [1.7, 0.9], "beta": [0.2, -0.5], "y": 0.4, "t": -0.3, "argv": ["kp"]},
     _soliton_output, "u", 1e-3),
    ({"id": "t", "kind": "finite-gap", "lams": [1.2, 0.5, -0.1], "gamma0": 0.2, "sign": "-",
      "argv": ["finite-gap"]}, _finitegap_output, "gamma", 1e-5),
    ({"id": "t", "kind": "schwarz", "phi": "tan(0.75*x)", "argv": ["schwarz"]}, _schwarz_output, "schwarzian", 1e-6),
]


@pytest.mark.parametrize("job, make, key, delta", CASES, ids=[c[0]["kind"] for c in CASES])
def test_perturbed_output_counts_as_failed(job, make, key, delta):
    output = make(job)
    assert run.judge(job, _record(output), {})[0] is False
    failed, err = run.judge(job, _record(_perturb(output, key, delta)), {})
    assert failed is True
    assert err > oracles.BOUNDS[job["kind"]]


def test_perturbed_hermite_and_floquet_count_as_failed():
    from riccatikit import finitegap as fg

    hermite = {"id": "t", "kind": "hermite", "n": 3, "argv": ["hermite"]}
    assert run.judge(hermite, _record({"polynomial": "8x^3-12x"}), {})[0] is False
    assert run.judge(hermite, _record({"polynomial": "8x^3-13x"}), {})[0] is True
    floquet = {"id": "t", "kind": "floquet", "lams": [2.0, 1.0, 0.0], "gamma0": 0.5, "sign": "+", "argv": ["floquet"]}
    spec = fg.GapSpec(2.0, 1.0, 0.0, 0.5)
    values = [fg.floquet_discriminant(spec, lam) for lam in floquet["lams"]]
    assert run.judge(floquet, _record({"discriminants": values}), {})[0] is False
    assert run.judge(floquet, _record({"discriminants": [values[0] * 1.001] + values[1:]}), {})[0] is True


def test_nonzero_exit_or_missing_output_counts_as_failed():
    job = {"id": "t", "kind": "checks", "argv": ["verify"]}
    assert run.judge(job, {"id": "t", "status": 3, "output": None}, {})[0] is True
    assert run.judge(job, {"id": "t", "status": None, "output": None}, {})[0] is True
    assert run.judge(job, _record({}), {}) == (False, None)


# ---------------------------------------------------------------------------
# job lists, tail percentile, tracer


def test_job_blocks_are_a_function_of_the_seed():
    for workload in jobs.WORKLOADS:
        assert jobs.job_blocks(workload, 3, 2) == jobs.job_blocks(workload, 3, 2)
        assert jobs.job_blocks(workload, 3, 2) != jobs.job_blocks(workload, 4, 2)
    degrees = {job["n"] for block in jobs.job_blocks("symbolic_exact", 3, 16) for job in block if job["kind"] == "hermite"}
    assert not degrees & set(jobs.HERMITE_KNOWN_FAILING)


def test_tail_keeps_ten_jobs_beyond_it():
    times = list(range(1, 41))
    value, pct = run.tail(times)
    assert value == 30 and pct == 75.0
    assert sum(t > value for t in times) == run.TAIL_BEYOND
    assert run.tail(list(range(1, 16))) == (8, 50.0)


def test_tracer_counts_two_solves_per_grid_point_and_restores():
    from riccatikit import cli
    from riccatikit import soliton as so

    original = (so.solve_coefficients, so.potential, cli.cmd_soliton)
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.run("job", "t", so.potential, so.SolitonSpec((2.0, 1.0), (0.0, 0.0)), np.linspace(-1, 1, 11))
    finally:
        tracer.uninstall()
    assert (so.solve_coefficients, so.potential, cli.cmd_soliton) == original
    metrics = tracer.metrics()
    assert metrics["soliton.solves_per_grid_point"] == 2.0
    assert metrics["soliton.solve_coefficients.calls"] == 22
    assert metrics["numeric.lu.calls"] > 0
    assert 0 < metrics["soliton.solve_coefficients.self_s"] < metrics["soliton.potential.s"]
    assert set(metrics) | {"import.total_s", "import.numpy_s", "import.riccatikit_self_s",
                           "trace.overhead_s"} == {name for name, _, _ in spans.PER_LAYER}
