"""Byte identity of the command outputs: each argv of golden.json gives its exit code and file hashes.

A change that alters an output on purpose rewrites the manifest with

    PYTHONPATH=src python tests/test_golden.py

and names each changed file, with the bug it fixes, in CHANGES.md.
"""

import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np

from riccatikit import cli

MANIFEST = Path(__file__).resolve().parent / "golden.json"

CASES = [
    # the README's shell examples; verify runs every suite
    ["soliton", "--k", "1", "--beta", "0", "--grid", "-10:10:0.01"],
    ["soliton", "--k", "2,1", "--beta", "0,0", "--grid", "-10:10:0.01"],
    ["hermite", "--n", "2"],
    ["pole-series", "--alpha", "3", "--eps", "0", "--depth", "5"],
    ["series", "--what", "f", "--m", "2", "--depth", "3"],
    ["series", "--what", "zeta", "--u", "-2/cosh(x)^2", "--depth", "1"],
    ["transform", "--a", "1", "--beta", "x"],
    ["solve-re", "--a", "-1", "--c", "x^2+1", "--phi1", "x", "--constants", "1,2", "--grid", "-2:2:0.1"],
    ["schwarz", "--phi", "tan(x)", "--grid", "-1:1:0.05"],
    ["kp", "--k", "2,1", "--beta", "0,0", "--grid", "-8:8:0.05", "--y", "0.5", "--t", "0.25"],
    ["finite-gap", "--lambdas", "2,1,0", "--gamma0", "0.5", "--grid", "0:12:0.01"],
    ["verify"],
    # one case per remaining mode
    ["soliton", "--k", "4,3.5,3,2.5,2,1.5,1,0.5", "--beta", "0,0.1,-0.2,0.3,0,-0.1,0.2,0", "--grid", "-10:10:0.01"],
    ["series", "--what", "h", "--m", "1", "--depth", "3"],
    ["finite-gap", "--lambdas", "2,1,0", "--gamma0", "0.5", "--grid", "0:12:0.01", "--deterministic"],
    ["hermite", "--n", "13"],  # exits 3: the witness check fails (ROADMAP item 6)
    ["schwarz", "--phi", "tan(t)"],  # exits 2: x is the only variable
]


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _run(argv, out):
    try:
        code = cli.main([*argv, "--out", str(out)])
    except SystemExit as exc:
        code = exc.code
    files = sorted(p for p in out.rglob("*") if p.is_file()) if out.exists() else []
    return {"exit": code, "files": {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                                    for p in files}}


def _manifest(tmp):
    return {
        "numpy": np.__version__,
        "cpu": _cpu_model(),
        "cases": [{"argv": argv, **_run(argv, tmp / str(i))} for i, argv in enumerate(CASES)],
    }


def test_every_case_keeps_its_exit_code_and_bytes(tmp_path):
    expected = json.loads(MANIFEST.read_text())
    assert [case["argv"] for case in expected["cases"]] == CASES
    got = _manifest(tmp_path)
    where = (f"manifest made with numpy {expected['numpy']} on {expected['cpu']!r}; "
             f"this run has numpy {got['numpy']} on {got['cpu']!r}")
    changed = [(want["argv"], want["exit"], have["exit"], name)
               for want, have in zip(expected["cases"], got["cases"])
               for name in sorted(set(want["files"]) | set(have["files"]))
               if want["files"].get(name) != have["files"].get(name)]
    codes = [(want["argv"], want["exit"], have["exit"])
             for want, have in zip(expected["cases"], got["cases"]) if want["exit"] != have["exit"]]
    assert (codes, changed) == ([], []), where


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        manifest = _manifest(Path(tmp))
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n")
    sys.exit(0)
