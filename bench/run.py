"""riccatikit benchmark: seeded closed-loop workloads with oracle-checked output.

Usage (from the repository root):

    python3 bench/run.py --workload soliton_grid --seed 1 --seconds 20 --trace 0

Workloads (see jobs.py): soliton_grid, finitegap_band, symbolic_exact.  Each
run builds its job list from --seed, times fresh interpreters for set-up,
and runs the jobs in one worker process (worker.py): one client, closed
loop, one job in flight.  --seconds sets the amount of work: the run holds
as many blocks of the workload's job mix as take --seconds at the baseline
(jobs.NOMINAL_BLOCK_S), so a run lasts about --seconds there, and a faster or
slower commit runs the very same jobs.  (Past 1.5 x --seconds of timed work
no further block starts, which bounds a run on a far slower machine.)  Every
job's output is then judged by an independent oracle (oracles.py), whose own
self-check must pass first.

--trace 0 prints the end-to-end metrics.  --trace 1 runs half the blocks
untraced, replays them with every layer wrapped (spans.py) and prints the
per-layer metrics instead.  The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}; the lines before it say the
same in words.  A result file with the environment goes to
.bench_work/results/ in the repository root.

--smoke runs three jobs of one block with two set-up samples; it exists for
bench/test_bench.py.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jobs
import oracles
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# (metric name, unit, better); the end_to_end list in BENCHMARK.json mirrors it.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("jobs_per_s", "1/s", "higher"),
    ("job_s_p50", "s", "lower"),
    ("job_s_tail", "s", "lower"),
    ("accuracy_digits", "digits", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("success_frac", "ratio", "higher"),
]

SETUP_REPEATS = 5  # fresh interpreters timed before the worker runs, and as many after
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import riccatikit, riccatikit.cli; riccatikit.cli.build_parser()")
TAIL_BEYOND = 10
SMOKE_JOBS = 3
WORKER_TIMEOUT = 150.0
DEADLINE_FACTOR = 1.5  # no block starts after 1.5 x --seconds of timed work
NOTE = "no privileged tracing; only the benchmark's own processes are measured"


class BenchError(RuntimeError):
    pass


def _python(*args, **kwargs):
    return subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True, text=True, **kwargs)


def time_setup(repeats):
    """Wall times of fresh interpreters importing riccatikit and building the parser."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = _python("-c", SETUP_CODE, str(SRC), timeout=60)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"set-up interpreter failed: {proc.stderr.strip()[-500:]}")
    return times


def measure_imports():
    proc = _python("-X", "importtime", "-c", SETUP_CODE, str(SRC), timeout=60)
    if proc.returncode != 0:
        raise BenchError(f"import-time interpreter failed: {proc.stderr.strip()[-500:]}")
    return spans.import_metrics(proc.stderr)


def tail(times):
    """(value, percentile): the highest percentile with TAIL_BEYOND jobs above it.

    Falls back to the median when there are too few jobs for that.
    """
    s = sorted(times)
    n = len(s)
    index = n - TAIL_BEYOND - 1
    if index < (n - 1) / 2:
        return statistics.median(s), 50.0
    return s[index], 100.0 * (index + 1) / n


def environment(worker):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": worker.get("numpy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "blas_threads": worker.get("blas_threads"),
        "cpu_model": cpu,
        "note": NOTE,
    }


def judge(job, record, cache):
    """(failed, error) for one job record; error is None for status-only jobs.

    A job fails when it raises, exits non-zero, or misses its oracle bound.
    ``cache`` maps (job id, output) to the oracle's error, so the traced
    replay of a job is judged without recomputing its reference.
    """
    if record["status"] != 0 or record["output"] is None:
        return True, None
    key = (job["id"], json.dumps(record["output"], sort_keys=True))
    if key not in cache:
        try:
            cache[key] = oracles.job_error(job, record["output"])
        except (ValueError, KeyError, ArithmeticError) as exc:
            print(f"oracle could not read the output of {job['id']}: {exc}")
            cache[key] = math.inf
    err = cache[key]
    return not oracles.passes(job, err), err


def summarize(records, jobs_by_id, cache):
    failed = 0
    errors = []
    for record in records:
        job = jobs_by_id[record["id"]]
        bad, err = judge(job, record, cache)
        if bad:
            failed += 1
            detail = record["stderr"].strip().splitlines()[-1:] or [""]
            print(f"FAILED {job['id']} {' '.join(job['argv'])} status={record['status']} "
                  f"error={err} {detail[0]}")
        elif err is not None:
            errors.append(err)
    return failed, errors


def run(workload, seed, seconds, trace, smoke=False):
    if not (SRC / "riccatikit" / "__init__.py").is_file():
        raise BenchError(f"no riccatikit source tree at {SRC}")
    problems = oracles.self_check(SRC)
    if problems:
        raise BenchError("oracle self-check failed:\n  " + "\n  ".join(problems))

    count = jobs.block_count(workload, seconds)
    if trace:
        count = max(1, count // 2)
    blocks = jobs.job_blocks(workload, seed, 1 if smoke else count)
    if smoke:
        blocks = [blocks[0][:SMOKE_JOBS]]
    warmup = jobs.warmup_job(workload)
    jobs_by_id = {job["id"]: job for block in blocks for job in block}
    jobs_by_id[warmup["id"]] = warmup

    run_dir = WORK / f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{trace}"
    run_dir.mkdir(parents=True)
    repeats = 1 if smoke else SETUP_REPEATS
    try:
        setup_times = [] if trace else time_setup(1 + repeats)[1:]  # the first may compile bytecode
        imports = measure_imports() if trace else {}
        spec = {
            "src": str(SRC), "work": str(run_dir / "jobs"), "blocks": blocks, "warmup": warmup,
            "trace": bool(trace), "probes": [] if smoke else jobs.known_failure_probes(workload),
            "deadline": DEADLINE_FACTOR * seconds,
            "spans_path": str(results_dir / f"{tag}-spans.jsonl"),
        }
        (run_dir / "spec.json").write_text(json.dumps(spec))
        proc = _python(str(HERE / "worker.py"), str(run_dir / "spec.json"), str(run_dir / "result.json"),
                       timeout=WORKER_TIMEOUT)
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        worker = json.loads((run_dir / "result.json").read_text())
        if not trace:
            setup_times += time_setup(repeats)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    setup_s = statistics.median(setup_times) if setup_times else None

    cache = {}
    warm_failed, _ = summarize(worker["warmup"], jobs_by_id, cache)
    timed = worker["timed"]
    failed, errors = summarize(timed, jobs_by_id, cache)
    attempted = len(timed)
    traced_failed, _ = summarize(worker["traced"], jobs_by_id, cache)
    env = environment(worker)

    times = [r["seconds"] for r in timed]
    tail_value, tail_pct = tail(times)
    accuracy = min((oracles.digits(e) for e in errors), default=oracles.MAX_DIGITS)
    e2e = {
        "setup_s": setup_s,
        "jobs_per_s": attempted / worker["wall"],
        "job_s_p50": statistics.median(times),
        "job_s_tail": tail_value,
        "accuracy_digits": accuracy,
        "peak_rss_mb": worker["peak_rss_mb"],
        "success_frac": (attempted - failed) / attempted,
    }

    print(f"workload {workload} seed {seed} trace {trace}: {attempted} jobs in {worker['blocks']} blocks, "
          f"{worker['wall']:.2f} s timed, one client, closed loop")
    for probe in worker["probes"]:
        print(f"known-failure probe (not timed, not counted): {' '.join(probe['argv'])} -> exit {probe['status']}")
    notes = {
        "setup_s": f"median of {len(setup_times)} fresh interpreters, half before and half after the jobs",
        "jobs_per_s": f"{attempted} jobs / {worker['wall']:.3f} s",
        "job_s_p50": f"{attempted} jobs",
        "job_s_tail": f"p{tail_pct:.1f}, {attempted} jobs, at least {TAIL_BEYOND} beyond it"
        if tail_pct > 50 else f"median: fewer than {2 * TAIL_BEYOND + 1} jobs",
        "accuracy_digits": f"min over {len(errors)} oracle comparisons",
        "peak_rss_mb": "worker high-water RSS",
        "success_frac": f"fail_frac {failed / attempted:.4g}: {failed} failed of {attempted} attempted",
    }
    if not trace:
        for name, unit, _ in END_TO_END:
            print(f"{name} {e2e[name]:.6g} {unit} ({notes[name]})")
    print("env: " + ", ".join(f"{k} {v}" for k, v in env.items()))

    if trace:
        layers = dict(worker["layers"])
        layers.update(imports)
        layers["trace.overhead_s"] = worker["traced_wall"] - worker["wall"]
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _ in spans.PER_LAYER}
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
        total = sum(worker["self_times"].values())
        ranked = sorted(worker["self_times"].items(), key=lambda kv: -kv[1])
        print("self-time share (span 'job' is cli.main and the runner around the handler): " + ", ".join(
            f"{name} {100 * t / total:.1f}%" for name, t in ranked[:8]))
        attempted += len(worker["traced"])
        failed += traced_failed
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit, _ in END_TO_END}

    correct = failed == 0 and warm_failed == 0
    summary = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "smoke": smoke,
              "environment": env, "notes": notes, "tail_percentile": tail_pct, "blocks": worker["blocks"],
              "probes": worker["probes"], "end_to_end": e2e, **summary}
    (results_dir / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="three jobs, two set-up samples")
    args = parser.parse_args(argv)
    try:
        summary = run(args.workload, args.seed, args.seconds, args.trace, smoke=args.smoke)
    except (BenchError, ValueError, subprocess.TimeoutExpired) as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
