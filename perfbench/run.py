#!/usr/bin/env python3
"""The coreach benchmark: two workloads, time-to-verdict metrics, and an
outside-in traced run for per-layer numbers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (a job is one spec or one oracle check; its time is the time to
its verdict):

  corpus   the six systems/*.lrw proved in-process through
           `coreach prove FILE --solver builtin`, in a seeded order
  oracle   the one-step commutation sweep and DVP checks of the corpus
           goals, on seeded ground states and instantiations

One closed loop with one client: jobs run one after another in one worker
interpreter, and every pass over a workload's inputs gets a fresh worker, so
no state carries between passes.  Passes repeat while the next one still
fits in `--seconds`.  A job's time to verdict is its fastest over the run's
passes; `wall_s` and `cpu_s` add those up, and `verdict_p50_ms` and
`verdict_tail_ms` are taken over them.  Every verdict is checked; a wrong
one makes the command exit 1.  The last line of stdout is the result
object; the line before it is the run record.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Two workloads, each run as long as the time for all runs allows: on a
# shared host other tenants slow the machine for minutes at a time, and only
# long runs of short jobs read steadily.  The seeded stress specs and the
# `--solver builtin-subprocess` corpus were dropped for that reason: their
# jobs of 0.5-1.5 s repeat too rarely in a run.
WORKLOADS = ("corpus", "oracle")
SOLVER = "builtin"
TIMEOUT_MS = 60_000  # far above the slowest query, so no verdict hits the deadline
WARMUP_STARTS = 2
MIN_PASSES = 4
SETUP_SAMPLES = 9
RUN_BUDGET_S = 170.0  # every pass must end within this, so the run ends within 180 s
TAIL_BEYOND = 10

# hand-written expected answers for the corpus: goal count, verdict, exit code
CORPUS_EXPECTED = {
    "compositeness": (2, "proved", 0),
    "gcd_div": (4, "proved", 0),
    "gcd_sub": (4, "proved", 0),
    "mul": (2, "proved", 0),
    "sum": (2, "proved", 0),
    "sum_squares": (2, "proved", 0),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "verdict_p50_ms": "ms",
    "verdict_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


class BenchError(Exception):
    """The benchmark itself cannot run (a corpus file is missing)."""


# -- inputs ---------------------------------------------------------------------------


def corpus_inputs():
    systems = ROOT / "systems"
    specs, jobs = {}, []
    for name, (goals, expected, code) in CORPUS_EXPECTED.items():
        path = systems / f"{name}.lrw"
        if not path.is_file():
            raise BenchError(f"missing corpus file {path}")
        specs[name] = str(path)
        jobs.append({"id": name, "spec": name, "path": str(path), "goals": goals, "expected": expected, "exit_code": code})
    return specs, jobs


# -- running passes -----------------------------------------------------------------------


def run_worker(plan: dict, path: Path, timeout_s: float) -> tuple[dict | None, float]:
    """One fresh worker interpreter; returns its result and set-up time.

    The worker leads its own process group, so a worker that overruns is
    killed together with any solver process it started."""
    path.write_text(json.dumps(plan), encoding="utf-8")
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(path)],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        _, stderr = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.stderr.write(f"worker for {path.name} exceeded {timeout_s:.0f} s\n")
        return None, 0.0
    result_path = Path(str(path) + ".result.json")
    if proc.returncode != 0 or not result_path.is_file():
        sys.stderr.write(stderr[-2000:])
        return None, 0.0
    result = json.loads(result_path.read_text(encoding="utf-8"))
    return result, result["ready"] - start


def job_best(runs: list[dict], key: str) -> dict[str, float]:
    """Each job's fastest time over the given passes (jobs that passed the
    gate).  Other tenants of a shared host slow it for seconds to minutes at
    a time; over many passes of short jobs, the fastest repeat of each job
    is the figure that stays put from run to run, where the median moves
    with how much of the run the host was busy."""
    times: dict[str, list[float]] = {}
    for r in runs:
        for j in r["jobs"]:
            if j["ok"]:
                times.setdefault(j["id"], []).append(j[key])
    return {k: min(v) for k, v in times.items()}


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it:
    (value, percentile, samples beyond).  Fewer samples give the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    k = n - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / n, TAIL_BEYOND


def run_record(args) -> dict:
    src = ROOT / "src"
    lines = sum(p.read_text(encoding="utf-8").count("\n") for p in src.rglob("*.py"))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg": os.getloadavg()[0],
        "solver": SOLVER,
        "solver_timeout_ms": TIMEOUT_MS,
        "git_commit": git_commit(),
        "src_lines": lines,
    }
    return record


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text(encoding="utf-8").strip() if target.is_file() else None
    return ref


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--max-jobs", type=int, default=None, help="cap jobs per pass (smoke test)")
    ap.add_argument("--plant-wrong", action="store_true", help="flip the first job's expected verdict (smoke test)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "coreach" / "__init__.py").is_file():
        print(f"error: no coreach sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    out = ROOT / ".bench_out" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    try:
        return bench(args, out)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        for leftover in out.glob("pass-*"):
            leftover.unlink()


def bench(args, out: Path) -> int:
    specs, jobs = corpus_inputs()
    jobs = [] if args.workload == "oracle" else jobs[: args.max_jobs or None]
    if args.plant_wrong and jobs:
        jobs[0] = dict(jobs[0], expected="failed", exit_code=1)
    record = run_record(args)

    # Set-up-only starts come first: they warm the file cache and the
    # bytecode cache before anything is timed.  Then passes run while the
    # next one still fits in --seconds, and at least MIN_PASSES; a traced
    # run alternates untraced and traced passes, so their difference is the
    # tracing overhead.  Every worker start is a set-up sample, and
    # set-up-only starts at the end top them up to SETUP_SAMPLES.
    deadline = time.monotonic() + RUN_BUDGET_S
    rng = random.Random(f"{args.workload}-{args.seed}")
    setups, results = [], []
    attempted = failed = 0
    failures = []

    def start(i: int, traced: bool | None) -> None:
        nonlocal attempted, failed
        order = list(jobs)
        rng.shuffle(order)
        plan = {
            "root": str(ROOT), "workload": args.workload, "seed": args.seed, "trace": bool(traced),
            "solver": SOLVER, "timeout_ms": TIMEOUT_MS, "specs": specs, "jobs": order,
            "setup_only": traced is None, "max_jobs": args.max_jobs,
        }
        remaining = deadline - time.monotonic()
        result, setup = run_worker(plan, out / f"pass-{i}.json", remaining) if remaining > 0 else (None, 0.0)
        if result is None:
            attempted += max(1, len(order))
            failed += max(1, len(order))
            failures.append(f"pass {i}: worker failed")
            return
        setups.append(setup)
        if traced is None:
            return
        result["traced"] = traced
        results.append(result)
        for job in result["jobs"]:
            attempted += 1
            if not job["ok"]:
                failed += 1
                failures.append(f"pass {i} {job['id']}: {job['detail']}")

    starts = itertools.count()
    for _ in range(WARMUP_STARTS):
        start(next(starts), None)
    durations: list[float] = []
    while time.monotonic() < deadline:
        if len(durations) >= MIN_PASSES and sum(durations) + statistics.median(durations) > args.seconds:
            break  # the next pass would likely run past --seconds
        t0 = time.monotonic()
        start(next(starts), bool(args.trace) and len(durations) % 2 == 1)
        durations.append(time.monotonic() - t0)
    while len(setups) < SETUP_SAMPLES and time.monotonic() < deadline:
        start(next(starts), None)

    untraced = [r for r in results if not r["traced"]]
    traced_runs = [r for r in results if r["traced"]]
    metrics: dict[str, float] = {}
    if untraced and not args.trace:
        job_ms, job_cpu_ms = job_best(untraced, "ms"), job_best(untraced, "cpu_ms")
        tail_ms, pct, beyond = tail(list(job_ms.values()))
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": sum(job_ms.values()) / 1000.0,
            "cpu_s": sum(job_cpu_ms.values()) / 1000.0,
            "verdict_p50_ms": statistics.median(job_ms.values()),
            "verdict_tail_ms": tail_ms,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        }
        record.update(tail_percentile=pct, tail_beyond=beyond, jobs=len(job_ms),
                      job_samples=sum(len(r["jobs"]) for r in untraced),
                      job_best_ms=dict(sorted(job_ms.items())))
    elif untraced and traced_runs:
        import tracing

        per_pass = [tracing.layer_metrics(r["spans"]) for r in traced_runs]
        metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
        wall_untraced = sum(job_best(untraced, "ms").values()) / 1000.0
        wall_traced = sum(job_best(traced_runs, "ms").values()) / 1000.0
        metrics["trace.overhead_s"] = wall_traced - wall_untraced
        metrics["trace.wall_s"] = wall_traced
        pass_wall = statistics.median(r["wall_s"] for r in traced_runs)  # matches the per-layer medians
        record["shares"] = {
            k: metrics[k] / pass_wall if pass_wall else 0.0
            for k in ("smt.check_sat.s", "smt.solver_s", "minismt.run_script.s",
                      "oracle.check_derivative_theorem.s", "oracle.build_graph.s", "oracle.enumerate_instances.s")
        }
        write_spans(out / "trace.jsonl", traced_runs)

    record.update(pass_wall_s=[r["wall_s"] for r in results], setup_samples_s=setups)
    record.update(passes=len(results), attempted=attempted, failed=failed,
                  failed_frac=failed / attempted if attempted else 1.0, failures=failures[:20])
    (out / "record.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    with (out / "passes.jsonl").open("w", encoding="utf-8") as fh:  # every job time of every pass
        for r in results:
            fh.write(json.dumps({"traced": r["traced"], "ms": {j["id"]: j["ms"] for j in r["jobs"]}}) + "\n")
    correct = failed == 0 and bool(metrics)
    units = END_TO_END_UNITS if not args.trace else {k: layer_unit(k) for k in metrics}
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in metrics},
    }))
    return 0 if correct else 1


def write_spans(path: Path, runs: list[dict]) -> None:
    """One JSON array per span: [pass, name, start, end, parent, job, attrs]."""
    with path.open("w", encoding="utf-8") as fh:
        for p, r in enumerate(runs):
            for span in r["spans"]:
                fh.write(json.dumps([p, *span]) + "\n")


if __name__ == "__main__":
    sys.exit(main())
