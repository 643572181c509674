"""Closed-loop job runner: one process, one client, one job in flight.

Usage: python3 worker.py SPEC.json RESULT.json

SPEC names the source tree, the work directory, the job blocks and whether
to trace.  The worker imports riccatikit from the source tree and nothing
heavier, so its peak RSS is the program's own.  It runs the known-failure
probes, one warm-up job, then every block's jobs in order, each one starting
when the previous one has returned.  With tracing on, it replays the same
blocks with the layers wrapped (see spans.py), and reports both wall times so
that their difference is the tracing overhead.  Job outputs are read back
after the timed phase.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

# Rows kept from each CSV for the oracle: every STRIDE-th row.
STRIDE = {"soliton": 50, "kp": 8, "finite-gap": 5, "schwarz": 1}
CSV_NAME = {"soliton": "soliton.csv", "kp": "kp.csv", "finite-gap": "finite_gap.csv", "schwarz": "schwarz.csv"}
COLUMNS = {"soliton": ("x", "u"), "kp": ("x", "u"), "finite-gap": ("x", "gamma"), "schwarz": ("x", "schwarzian")}


def run_job(cli, fg, job, out_dir):
    """Run one job; returns (exit status, direct output or None)."""
    if job["kind"] == "floquet":
        spec = fg.GapSpec(*job["lams"], job["gamma0"], 1 if job["sign"] == "+" else -1)
        return 0, {"discriminants": [fg.floquet_discriminant(spec, lam) for lam in job["lams"]]}
    return cli.main(job["argv"] + ["--out", str(out_dir)]), None


def closed_loop(cli, fg, blocks, out_root, tracer=None, deadline=None):
    """Run every job of every block in order, one at a time; returns (records, wall).

    Past ``deadline`` seconds no further block starts, which bounds the run
    on a machine far slower than the one the block count was sized on.
    """
    records = []
    devnull = open(os.devnull, "w")
    start = time.perf_counter()
    try:
        for block in blocks:
            if deadline is not None and time.perf_counter() - start > deadline:
                break
            for job in block:
                out_dir = out_root / f"{len(records):05d}"
                err = io.StringIO()
                t0 = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(devnull), contextlib.redirect_stderr(err):
                        if tracer is None:
                            status, direct = run_job(cli, fg, job, out_dir)
                        else:
                            status, direct = tracer.run("job", job["id"], run_job, cli, fg, job, out_dir)
                except Exception as exc:  # a raising job is a failed job, never a dropped one
                    status, direct = None, None
                    err.write(f"{type(exc).__name__}: {exc}")
                t1 = time.perf_counter()
                records.append({"id": job["id"], "status": status, "seconds": t1 - t0, "dir": str(out_dir),
                                "direct": direct, "stderr": err.getvalue()[-500:]})
    finally:
        devnull.close()
    return records, time.perf_counter() - start


def _read_columns(path, names, stride):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    picked = rows[::stride]
    if (len(rows) - 1) % stride:
        picked.append(rows[-1])
    return {name: [float(r[name]) for r in picked] for name in names}


def collect_output(job, record):
    """The part of a job's output that its oracle needs, read from disk."""
    kind = job["kind"]
    if record["status"] != 0:
        return None
    if record["direct"] is not None:
        return record["direct"]
    out = Path(record["dir"])
    if kind in CSV_NAME:
        return _read_columns(out / CSV_NAME[kind], COLUMNS[kind], STRIDE[kind])
    if kind == "hermite":
        return {"polynomial": json.loads((out / "hermite_report.json").read_text())["polynomial"]}
    return {}


def blas_threads():
    """OpenBLAS thread count as the loaded library reports it, or None."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            path = next((line.split()[-1] for line in fh if "openblas" in line.lower()), None)
    except OSError:
        return None
    if path is None:
        return None
    lib = ctypes.CDLL(path)
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
        if hasattr(lib, symbol):
            return int(getattr(lib, symbol)())
    return None


def main(spec_path, result_path):
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, spec["src"])
    import numpy as np
    from riccatikit import cli
    from riccatikit import finitegap as fg

    work = Path(spec["work"])
    jobs = {job["id"]: job for block in spec["blocks"] for job in block}
    jobs[spec["warmup"]["id"]] = spec["warmup"]

    probes = []
    for argv in spec["probes"]:
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                status = cli.main(argv + ["--out", str(work / "probe")])
        except Exception as exc:
            status = f"{type(exc).__name__}: {exc}"
        probes.append({"argv": argv, "status": status})

    warmup, _ = closed_loop(cli, fg, [[spec["warmup"]]], work / "warmup")
    timed, wall = closed_loop(cli, fg, spec["blocks"], work / "timed", deadline=spec["deadline"])
    done = len({record["id"].rsplit("/", 1)[0] for record in timed})
    result = {
        "wall": wall, "blocks": done, "warmup": warmup, "timed": timed, "traced": [],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "probes": probes, "numpy": np.__version__, "blas_threads": blas_threads(),
    }
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        try:
            result["traced"], result["traced_wall"] = closed_loop(
                cli, fg, spec["blocks"][:done], work / "traced", tracer=tracer)
        finally:
            tracer.uninstall()
        result["layers"] = tracer.metrics()
        result["self_times"] = tracer.self_times
        tracer.dump(spec["spans_path"])
    for record in result["warmup"] + result["timed"] + result["traced"]:
        record["output"] = collect_output(jobs[record["id"]], record)
        del record["direct"]
    shutil.rmtree(work, ignore_errors=True)
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
