"""Seeded job lists for the three benchmark workloads.

A job is a dict ``{"id", "kind", "argv", ...}``.  ``argv`` is what
``riccatikit.cli.main`` receives; ``kind`` names the oracle that judges the
output; the remaining keys carry what the oracle needs (they never reach the
program).  ``kind == "floquet"`` jobs call ``finitegap.floquet_discriminant``
directly with ``lams``/``gamma0``/``sign``.

A run is a list of blocks.  A block holds the workload's full job mix once,
with parameters drawn from the seed; the depths of the symbolic series jobs
step through their range from block to block.  The number of blocks follows
from the run's time budget and the block's nominal time (``NOMINAL_BLOCK_S``,
roughly as measured at the baseline on a 2-vCPU Xeon), not from a clock read
during the run: every commit and every machine runs the same jobs for a given
seed and budget, and the job-time percentiles compare like with like.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("soliton_grid", "finitegap_band", "symbolic_exact")

NOMINAL_BLOCK_S = {"soliton_grid": 7.0, "finitegap_band": 2.8, "symbolic_exact": 1.4}

# Hermite degrees whose run exits 3 when this benchmark was written: the
# witness check uses an absolute 1e-10 tolerance at x in [4, 9] (2e-9 at
# n = 13, 1.2e-10 at n = 17, growing with n).  The timed mix leaves them out,
# because the benchmark's workloads must run without failures;
# known_failure_probes runs them once per run, untimed, and run.py prints what
# it sees, so the defect stays visible.
HERMITE_KNOWN_FAILING = (13, 17, 18, 24)
HERMITE_DEGREES = tuple(n for n in range(17) if n != 13)


def _num(v):
    return repr(float(v))


def _nums(values):
    return ",".join(_num(v) for v in values)


# ---------------------------------------------------------------------------
# soliton_grid


def _soliton_params(rng, n):
    # At N = 8 the report's a1_limit checks (absolute 1e-8 on a1 ~ sum k ~ 40)
    # and transparency_residual (1e-8) fail on roundoff for about 1 % of gap
    # draws up to 1.5 (see known_failure_probes); gaps up to 1.0 kept a 1.7x
    # margin in 3000 draws.  N <= 7 keeps the full [0.5, 1.5].
    gaps = rng.uniform(0.5, 1.0 if n == 8 else 1.5, n)
    k = np.cumsum(gaps)[::-1]  # k_N = first gap, k_j = k_{j+1} + gap: strictly decreasing
    beta = rng.uniform(-1.0, 1.0, n)
    return [float(v) for v in k], [float(v) for v in beta]


def _soliton_block(rng):
    """N = 1..8 in seeded order, with three kp slices (N = 1, 2 and one drawn) between.

    Eleven jobs whose times cluster by N: in a run of three blocks the median
    falls in the middle of the N = 3 cluster and the tail in that of N = 5,
    rather than on a boundary between two clusters.
    """
    solitons = []
    for n in rng.permutation(np.arange(1, 9)):
        k, beta = _soliton_params(rng, int(n))
        solitons.append({
            "kind": "soliton", "k": k, "beta": beta,
            "argv": ["soliton", "--k", _nums(k), "--beta", _nums(beta), "--grid", "-10:10:0.01"],
        })
    slices = []
    for n in (1, 2, int(rng.integers(1, 3))):
        k, beta = _soliton_params(rng, n)
        y, t = (float(v) for v in rng.uniform(-1.0, 1.0, 2))
        slices.append({
            "kind": "kp", "k": k, "beta": beta, "y": y, "t": t,
            "argv": ["kp", "--k", _nums(k), "--beta", _nums(beta), "--grid", "-8:8:0.05",
                     "--y", _num(y), "--t", _num(t)],
        })
    return solitons[:3] + slices[:1] + solitons[3:6] + slices[1:2] + solitons[6:] + slices[2:]


# ---------------------------------------------------------------------------
# finitegap_band


def _gap_params(rng):
    # lambda1 - lambda3 stays in [1, 1.5]: wider bands make the adaptive run's
    # absolute 1e-8 energy-drift check fail (see known_failure_probes), and
    # narrower ones stretch the period past half the 0:12 grid, where the
    # trajectory no longer holds the two maxima its period check needs.
    lam3 = rng.uniform(-1.0, 1.0)
    width = rng.uniform(1.0, 1.5)
    ratio = rng.uniform(0.05, 0.95)
    lam1 = lam3 + width
    lam2 = lam3 + ratio * width
    gamma0 = lam3 + (lam2 - lam3) * rng.uniform(0.05, 0.95)
    sign = "+" if rng.random() < 0.5 else "-"
    return [float(lam1), float(lam2), float(lam3)], float(gamma0), sign


def _finitegap_block(rng):
    jobs = []
    for deterministic in (False, True, False, True):
        lams, gamma0, sign = _gap_params(rng)
        argv = ["finite-gap", "--lambdas", _nums(lams), "--gamma0", _num(gamma0),
                "--sign", sign, "--grid", "0:12:0.01"]
        if deterministic:
            argv.append("--deterministic")
        jobs.append({"kind": "finite-gap", "lams": lams, "gamma0": gamma0, "sign": sign, "argv": argv})
    lams, gamma0, sign = _gap_params(rng)
    jobs.append({"kind": "floquet", "lams": lams, "gamma0": gamma0, "sign": sign, "argv": ["floquet"]})
    return jobs


# ---------------------------------------------------------------------------
# symbolic_exact

_SCHWARZ_PHI = (
    "tan({a}*x)", "exp({a}*x)", "x^3+{a}*x", "sinh({a}*x)", "tanh({a}*x)+{b}*x",
    "x+{c}*sin(x)", "log(x+{d})", "x+{e}*x^2",
)  # each has phi' != 0 on the grid [-1, 1], so the Schwarzian stays finite
# zeta_1^2 - zeta_1' is constant only for one-soliton wells, which the
# report's zeta1_truncation_constant_drift check assumes.
_ZETA_U = ("-2/cosh(x)^2", "-2*{a}^2/cosh({a}*x)^2")
_ATOMS = ("1", "2", "x", "x^2", "sin(x)", "exp(x)", "cosh(x)")


def _pick(rng, seq):
    return seq[int(rng.integers(len(seq)))]


def _schwarz_phi(rng):
    template = _pick(rng, _SCHWARZ_PHI)
    return template.format(a=_pick(rng, (0.5, 0.75, 1.0)), b=_pick(rng, (0.25, 0.5, 1.0)),
                           c=_pick(rng, (0.25, 0.5)), d=_pick(rng, (2, 3)), e=_pick(rng, (0.25, 0.375)))


def _grammar_expr(rng):
    """c0*atom or c0*atom + c1*atom from a small fixed grammar."""
    first = f"{_pick(rng, (1, 2, -1, 0.5))}*{_pick(rng, _ATOMS)}"
    if rng.random() < 0.5:
        return first
    return f"{first}+{_pick(rng, (1, -2, 0.25))}*{_pick(rng, _ATOMS)}"


# (A, B, p, q) for solve-re: phi1 = p x + q solves phi' = A phi^2 + B phi + c
# with c = p - A (p x + q)^2 - B (p x + q).  The cost of a job is set by the
# quadrature of its integrating factor; in one measurement these eight took
# 0.65-0.82 s where the whole family spanned 0.2-1.3 s, so the slowest jobs
# of a run, where job_s_tail falls, swing less with the seed.
_SOLVE_RE = ((-1, 0, 1, 1), (-1, 0, 1, -1), (-1, 1, -1, 0), (-1, -1, -1, -1),
             (1, 0, 1, -1), (1, 1, -1, 1), (1, -1, -1, 0), (1, -1, -1, 1))


def _solve_re_args(rng):
    a, b, p, q = _pick(rng, _SOLVE_RE)
    c2 = -a * p * p
    c1 = -2 * a * p * q - b * p
    c0 = p - a * q * q - b * q
    c = f"{c2}*x^2+{c1}*x+{c0}".replace("+-", "-")
    phi1 = f"{p}*x+{q}".replace("+-", "-")
    constants = sorted(int(v) for v in rng.choice(np.arange(1, 6), 3, replace=False))
    return ["solve-re", "--a", str(a), "--b", str(b), "--c", c, "--phi1", phi1,
            "--constants", ",".join(str(v) for v in constants), "--grid", "-2:2:0.1"]


def _symbolic_block(rng, index):
    jobs = []
    for slot, (what, m) in enumerate((("f", 1), ("f", 2), ("g", 1), ("g", 2), ("h", 1), ("h", 2))):
        depth = 1 + (index + slot) % 8
        jobs.append({"kind": "series", "argv": ["series", "--what", what, "--m", str(m), "--depth", str(depth)]})
    u = _pick(rng, _ZETA_U).format(a=_pick(rng, (0.5, 1.5, 2.0)))
    zeta_depth = 1 + index % 4
    jobs.append({"kind": "series", "argv": ["series", "--what", "zeta", "--u", u, "--depth", str(zeta_depth)]})
    n = int(_pick(rng, HERMITE_DEGREES))
    jobs.append({"kind": "hermite", "n": n, "argv": ["hermite", "--n", str(n)]})
    alpha = _pick(rng, ("1", "2", "3", "1/2", "5/2", "-1"))
    eps = _pick(rng, ("0", "1/4", "-1/3", "1/2"))
    depth = int(rng.integers(4, 9))
    jobs.append({"kind": "checks", "argv": ["pole-series", "--alpha", alpha, "--eps", eps, "--depth", str(depth)]})
    transform = ["transform", "--a", _grammar_expr(rng), "--b", _grammar_expr(rng), "--c", _grammar_expr(rng)]
    # alpha * delta >= 2 while beta * gamma is 0, +-1 or +-x: the determinant
    # never vanishes identically
    mobius = (("--alpha", (2, 3)), ("--beta", (0, 1, "x")), ("--gamma", (0, 1, -1)), ("--delta", (1, 2)))
    for flag, choices in mobius:
        transform += [flag, str(_pick(rng, choices))]
    jobs.append({"kind": "checks", "argv": transform})
    phi = _schwarz_phi(rng)
    jobs.append({"kind": "schwarz", "phi": phi, "argv": ["schwarz", "--phi", phi, "--grid", "-1:1:0.005"]})
    jobs.append({"kind": "checks", "argv": _solve_re_args(rng)})
    for suite in ("symbolic", "riccati", "schwarzian"):
        jobs.append({"kind": "checks", "argv": ["verify", "--suite", suite]})
    order = rng.permutation(len(jobs))
    return [jobs[i] for i in order]


# ---------------------------------------------------------------------------


def block_count(workload, seconds):
    """Blocks in a run with a budget of ``seconds``: at least one."""
    return max(1, round(seconds / NOMINAL_BLOCK_S[workload]))


def job_blocks(workload, seed, blocks):
    """``blocks`` blocks (lists of jobs) for ``workload``, drawn from ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    out = []
    for index in range(blocks):
        if workload == "soliton_grid":
            block = _soliton_block(rng)
        elif workload == "finitegap_band":
            block = _finitegap_block(rng)
        else:
            block = _symbolic_block(rng, index)
        for pos, job in enumerate(block):
            job["id"] = f"{workload}/{index}/{pos}"
        out.append(block)
    return out


def known_failure_probes(workload):
    """argv lists that exited 3 when this benchmark was written; each run executes them once, untimed."""
    return {
        # N = 8, gaps up to 1.5: a1_limit 1.0e-8 against the absolute 1e-8
        "soliton_grid": [["soliton", "--k", "8.64933751737642,7.724880941771842,6.52857170354419,"
                          "5.890236449693986,5.22383101027663,3.787441855334462,2.324187167937911,"
                          "0.8593408747194862", "--beta", "-0.0809217281272212,0.6189301710337787,"
                          "0.06257237245357783,-0.6705703193795545,-0.5102092863953507,-0.9574251988127194,"
                          "-0.6470091464234464,-0.361522733468006", "--grid", "-10:10:0.01"]],
        # lambda1 - lambda3 = 4: adaptive energy drift 1.7e-8 against the absolute 1e-8
        "finitegap_band": [["finite-gap", "--lambdas", "4,2,0", "--gamma0", "0.5", "--grid", "0:12:0.01"]],
        "symbolic_exact": [["hermite", "--n", str(n)] for n in HERMITE_KNOWN_FAILING],
    }[workload]


def warmup_job(workload):
    """A fixed job of the workload's kind, run once before timing."""
    return {
        "soliton_grid": {"id": "warmup", "kind": "soliton", "k": [1.0], "beta": [0.0],
                         "argv": ["soliton", "--k", "1", "--beta", "0", "--grid", "-10:10:0.01"]},
        "finitegap_band": {"id": "warmup", "kind": "finite-gap", "lams": [2.0, 1.0, 0.0], "gamma0": 0.5,
                           "sign": "+", "argv": ["finite-gap", "--lambdas", "2,1,0", "--gamma0", "0.5",
                                                 "--grid", "0:12:0.01"]},
        "symbolic_exact": {"id": "warmup", "kind": "checks",
                           "argv": ["series", "--what", "h", "--m", "1", "--depth", "4"]},
    }[workload]
