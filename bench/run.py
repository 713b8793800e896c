"""Benchmark for the steadyparts CLI.

    python3 bench/run.py --workload table1-large --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is used from src/ as it stands.
One client drives the CLI as a closed loop: each invocation is its own
process, `PYTHONPATH=src python -m steadyparts.cli ...`, started only after
the previous one exits.  A pass runs the workload's invocations once; passes
repeat until --seconds have gone by.  Every output is checked against
bench/reference.py, which shares no code with the package.

--trace 0 reports the end-to-end metrics, from untraced passes only.  Every
invocation is timed between two runs of a fixed calibration kernel, and its
times are scaled by how much slower than CALIBRATION_S the kernel ran around
it.  A shared host can slow every process by half or more for seconds at
a time; the kernel slows with it, so the scaled times hold still while a
slower program still reads slower.  The unscaled times of each pass
are printed on the context line.
--trace 1 alternates untraced passes with passes run under bench/tracer.py
and reports the per-layer metrics of bench/layers.py.

Each process's CPU time and peak RSS are read from that process alone, with
os.wait4.  Stdout ends with a human-readable table, a context line and,
last, one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import layers
import reference
import tracer

ROOT = Path(__file__).resolve().parent.parent
CLI = ("-m", "steadyparts.cli")
TRACED_CLI = (str(Path(__file__).resolve().parent / "tracer.py"),)
INVOCATION_TIMEOUT_S = 150
PROBES = 2  # setup_s samples per pass; table1-large has only ~9 passes a run

# End-to-end metric -> unit.  Their bounds are in BENCHMARK.json.  Times
# are scaled to calibration (see calibrate), CPU time too.
#   wall_s       wall time of one pass, median over passes
#   query_p50_s  median over the workload's invocations of each one's wall
#                time, that being its median over passes
#   query_p90_s  90th percentile of the same: the slow cells of compute-mix
#   cpu_s        user + system CPU of one pass's processes, median
#   peak_rss_mb  largest peak RSS of any process of a pass, median
#   setup_s      wall time of a CLI call that builds no table (interpreter
#                start, import, click parsing), run PROBES times before every
#                pass; median
END_TO_END = {
    "wall_s": "s", "query_p50_s": "s", "query_p90_s": "s",
    "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
}


# What calibrate() takes on an idle host of the kind the bounds were set on
# (2 vCPUs, CPython 3.11): the unit to which every end-to-end time is scaled.
CALIBRATION_S = 0.04


@dataclass
class Invocation:
    args: tuple
    check: Callable[[str], "str | None"]  # stdout -> None, or what is wrong


@dataclass
class Result:
    wall: float
    cpu: float
    rss_mb: float
    problem: str | None
    trace: dict | None = None
    scale: float = 1.0  # CALIBRATION_S / the calibration time around it


@dataclass
class Workload:
    invocations: list
    probe: Invocation
    about: dict  # descriptors printed in the context line


# --- workloads -------------------------------------------------------------

def _probe(G: list) -> Invocation:
    return Invocation(("asym", "--m", "100", "--n", "100"), partial(reference.check_asym, G=G))


def table1_large(seed: int) -> Workload:
    """The paper's Table 1: one table build at N = 10100, then 8 cells on the
    2-thread pool.  The input is fixed; the seed does not change it."""
    ls = (10, 40, 70, 100)
    G = reference.g_table(max(L * L for L in ls))
    args = ("--threads", "2", "table1", "--L", ",".join(map(str, ls)), "--format", "json")
    inv = Invocation(args, partial(reference.check_table1, l_values=ls, G=G))
    biggest = max(reference.pi(G, L * L, L * L + L) for L in ls)
    return Workload([inv], _probe(G), {
        "N": max(L * L + L for L in ls), "digits": len(str(biggest)), "cells": 2 * len(ls),
    })


SHAPES = ("diagonal", "near-diagonal", "between", "wide", "tall")


def compute_cells(seed: int) -> list:
    """(100, 100) plus seven cells on a ladder mu = 1500..4500 in steps of
    500.  The seed moves every cell a little and picks its exact shape
    offsets; the ladder and the shape of each rung stay fixed, so passes of
    different seeds cost about the same."""
    rng = random.Random(seed)
    cells = [(100, 100)]
    for i in range(7):
        mu = 1500 + 500 * i + rng.randrange(50)
        shape = SHAPES[i % len(SHAPES)]
        if shape == "diagonal":
            cells.append((mu, mu))
        elif shape == "near-diagonal":
            off = rng.randint(1, 40)
            cells.append((mu, mu + off) if rng.random() < 0.5 else (mu + off, mu))
        elif shape == "between":  # n < m < 2n
            cells.append((mu + rng.randint(mu // 4, 3 * mu // 4), mu))
        elif shape == "wide":  # m > 2n, where D = 0
            cells.append((2 * mu + rng.randint(1, mu // 2), mu))
        else:  # m << n
            cells.append((mu, 2 * mu + rng.randint(1, mu // 2)))
    return cells


def compute_mix(seed: int) -> Workload:
    cells = compute_cells(seed)
    G = reference.g_table(max(min(m, n) for m, n in cells))
    invs = [
        Invocation(("compute", "--m", str(m), "--n", str(n)),
                   partial(reference.check_compute, m=m, n=n, G=G))
        for m, n in cells
    ]
    values = [reference.pi(G, m, n) for m, n in cells] + [reference.d(G, m, n) for m, n in cells]
    return Workload(invs, _probe(G), {
        "N": max(max(m, n) for m, n in cells), "digits": len(str(max(values))),
        "cells": len(cells) + sum(1 for m, n in cells if m <= 2 * n),
    })


def verify_deep(seed: int) -> Workload:
    """The oracle layers; fixed input, tables never past N = 100."""
    G = reference.g_table(100)
    return Workload([Invocation(("verify", "--deep"), reference.check_verify)], _probe(G), {
        "N": 100, "digits": None, "cells": 121 + 1681,
    })


WORKLOADS = {"table1-large": table1_large, "compute-mix": compute_mix, "verify-deep": verify_deep}


# --- running one invocation ------------------------------------------------

def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("STEADYPARTS_")}
    env["PYTHONPATH"] = "src"
    return env


def spawn(argv: list, env: dict) -> tuple:
    """Run argv to completion; return (wall, exit code, rusage, stdout, stderr)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    killer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
    killer.start()
    err: list = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    reader.join()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return wall, proc.returncode, usage, out.decode(errors="replace"), err[0].decode(errors="replace")


def invoke(inv: Invocation, env: dict, traced: bool = False) -> Result:
    prefix = TRACED_CLI if traced else CLI
    wall, code, usage, out, err = spawn([sys.executable, *prefix, *inv.args], env)
    trace = None
    if traced:
        marked = [line for line in err.splitlines() if line.startswith(tracer.MARKER)]
        trace = json.loads(marked[-1][len(tracer.MARKER):]) if marked else None
    if code != 0:
        problem = f"exit {code}: {err.strip()[-200:]}"
    elif traced and trace is None:
        problem = "traced run wrote no spans"
    else:
        try:
            problem = inv.check(out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problem = f"unreadable output ({exc!r})"
    return Result(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, problem, trace)


def calibrate() -> float:
    """Seconds this process takes for a fixed kernel of the package's kind
    of work, Python loops over big integers: the partition numbers p(0..3000)
    by Euler's pentagonal recurrence."""
    start = time.perf_counter()
    p = [1] + [0] * 3000
    for n in range(1, len(p)):
        total, k = 0, 1
        while k * (3 * k - 1) // 2 <= n:
            sign = 1 if k % 2 else -1
            total += sign * p[n - k * (3 * k - 1) // 2]
            if k * (3 * k + 1) // 2 <= n:
                total += sign * p[n - k * (3 * k + 1) // 2]
            k += 1
        p[n] = total
    return time.perf_counter() - start


def calibrated_pass(invs: list, env: dict) -> list:
    """Run invs in turn with a calibration before, between and after them;
    scale each by the mean of the two calibrations around it."""
    cals = [calibrate()]
    results = []
    for inv in invs:
        results.append(invoke(inv, env))
        cals.append(calibrate())
    for r, before, after in zip(results, cals, cals[1:]):
        r.scale = 2 * CALIBRATION_S / (before + after)
    return results


# --- metrics ---------------------------------------------------------------

def quantile(values: list, q: int) -> float:
    """The q-th percentile, by statistics.quantiles' inclusive method."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(passes: list, probes: list) -> dict:
    queries = [statistics.median(r.wall * r.scale for r in same) for same in zip(*passes)]
    return {
        "wall_s": statistics.median(sum(r.wall * r.scale for r in p) for p in passes),
        "query_p50_s": quantile(queries, 50),
        "query_p90_s": quantile(queries, 90),
        "cpu_s": statistics.median(sum(r.cpu * r.scale for r in p) for p in passes),
        "peak_rss_mb": statistics.median(max(r.rss_mb for r in p) for p in passes),
        "setup_s": statistics.median(r.wall * r.scale for r in probes),
    }


def union_length(intervals: list) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


def layer_pass(results: list) -> tuple:
    """Per-layer self times and counts of one traced pass, the wall time its
    spans cover, and the set of metrics the package still feeds."""
    values: dict = {}
    covered = 0.0
    present = set(layers.ALWAYS)
    for r in results:
        if r.trace is None:  # counted as failed; it has no spans to add
            continue
        spans = r.trace["spans"]
        present |= layers.present_metrics({tuple(x) for x in r.trace["resolved"]})
        child_time: dict = {}
        for _, _, parent, start, end, _ in spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + end - start
        inv_counts: dict = {}
        for name, sid, _, start, end, span_counts in spans:
            values[name] = values.get(name, 0.0) + end - start - child_time.get(sid, 0.0)
            for key, value in (span_counts or {}).items():
                inv_counts[key] = inv_counts.get(key, 0) + value
        for key, value in inv_counts.items():
            old = values.get(key, 0)
            values[key] = max(old, value) if key in layers.COUNT_IS_PEAK else old + value
        top = union_length([(s[3], s[4]) for s in spans if s[2] is None])
        covered += top
        values["cli.self_s"] = values.get("cli.self_s", 0.0) + r.wall - top
    return values, covered, present


def per_layer(plain: list, traced: list) -> tuple:
    """Median over traced passes of every present layer metric; the rest are
    returned as absent."""
    per_pass = [layer_pass(p) for p in traced]
    present = set.intersection(*(pp[2] for pp in per_pass))
    plain_wall = statistics.median(sum(r.wall for r in p) for p in plain)
    traced_wall = statistics.median(sum(r.wall for r in p) for p in traced)
    metrics = {
        "trace.overhead_s": traced_wall - plain_wall,
        "trace.coverage": statistics.median(pp[1] for pp in per_pass) / plain_wall,
    }
    for name in layers.LAYER_METRICS:
        if name in present and name not in metrics:
            metrics[name] = statistics.median(pp[0].get(name, 0) for pp in per_pass)
    absent = sorted(set(layers.LAYER_METRICS) - set(metrics))
    return metrics, absent


# --- main ------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    env = child_env()
    context = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
    }
    # Warm-up: compiles the package's bytecode, and refuses to report a
    # result when there is no working CLI to measure.
    warm = invoke(_probe(reference.g_table(100)), env)
    if warm.problem:
        print(f"bench: the steadyparts CLI does not run here: {warm.problem}", file=sys.stderr)
        return 1

    work = WORKLOADS[args.workload](args.seed)  # references, outside the timed region
    plain, traced, probes = [], [], []
    # At least one round; no round is started that would end past --seconds.
    start = now = time.perf_counter()
    while True:
        if args.trace:
            plain.append([invoke(inv, env) for inv in work.invocations])
            traced.append([invoke(inv, env, traced=True) for inv in work.invocations])
        else:
            done = calibrated_pass([work.probe] * PROBES + work.invocations, env)
            probes += done[:PROBES]
            plain.append(done[PROBES:])
        last, now = now, time.perf_counter()
        if 2 * now - last - start > args.seconds:
            break

    results = probes + [r for p in plain + traced for r in p]
    problems = [r.problem for r in results if r.problem]
    if args.trace:
        metrics, absent = per_layer(plain, traced)
        units = {name: unit for name, (unit, _) in layers.LAYER_METRICS.items()}
    else:
        metrics, absent = end_to_end(plain, probes), []
        units = END_TO_END

    if not args.trace:
        context["pass_scales"] = [round(min(r.scale for r in p), 3) for p in plain]
    context.update(work.about, pass_walls=[round(sum(r.wall for r in p), 3) for p in plain],
                   passes=len(plain), traced_passes=len(traced),
                   invocations=len(work.invocations), queries=sum(map(len, plain)),
                   probes=len(probes), failed_frac=len(problems) / len(results))
    for name, value in metrics.items():
        print(f"{name:26} {value:14.6f} {units[name]}")
    for name in absent:
        print(f"{name:26} {'absent':>14}")
    for problem in problems[:5]:
        print(f"FAILED: {problem}")
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(results),
        "failed": len(problems),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
