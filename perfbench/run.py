"""Benchmark of polygauss: collection, igs elimination and sifting.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/`` next to this directory, nothing is installed.  Workloads:
collect, closure, lattice, membership (see NOTES.md for why each exists).
Each is a closed loop driven by one caller in one thread.

``--trace 0`` times the workload and prints the end-to-end metrics;
``--trace 1`` traces one set-up and one pass over the inputs, between two
untraced passes, and prints the per-layer metrics, the size sweeps and
the tracing overhead.  Every answer is checked against a reference
outside the timed region; the first wrong one is shown on stderr.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the seed, the load average and the CPU affinity.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_MIN_REPEATS = 3    # set-up is short: report the median of repeats
SETUP_SECONDS = 1.5      # ... and repeat it for at least this long
WARMUP_INPUTS = 100      # untimed operations before the first timed pass
MIN_PASSES = 3           # per-input latency is the median over the passes
# per-layer metric -> (case factory in workloads.py, sizes, repeats of a size)
SWEEPS = {
    "elements.exp_slope": ("heisenberg_power_case", (10, 100, 1000, 10000),
                           lambda k: 5 if k < 1000 else 3),
    "igs.chain_slope": ("carry_chain_case", (8, 12, 16, 20, 24),
                        lambda n: 3 if n <= 12 else 1),
}


class Failure:
    """An operation that raised; never equal to a real answer."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"

    def __repr__(self):
        return self.text


def run_op(op, x):
    try:
        return op(x)
    except Exception as exc:   # counted as a failed operation, run goes on
        return Failure(exc)


def setup_case(setup, seed: int, workdir: str):
    """Repeat set-up from the same seed; its median time and the last case."""
    times: list[float] = []
    while len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_SECONDS:
        gc.collect()
        start = time.perf_counter()
        case = setup(random.Random(seed), workdir)
        times.append(time.perf_counter() - start)
    return case, statistics.median(times)


def warm_up(case, rng: random.Random):
    """Untimed operations on a sample of the inputs."""
    for i in rng.sample(range(len(case.inputs)), min(WARMUP_INPUTS, len(case.inputs))):
        run_op(case.op, case.inputs[i])


def check_answers(case, answers: list[dict]) -> int:
    """Number of operations whose answer is wrong or an exception."""
    failed = 0
    for x, seen in zip(case.inputs, answers):
        for answer, count in seen.items():
            try:
                ok = not isinstance(answer, Failure) and case.check(x, answer)
            except Exception:
                ok = False
            if not ok:
                if not failed:
                    print(f"wrong answer {answer!r} for input {x!r}", file=sys.stderr)
                failed += count
    return failed


def timed_passes(case, seconds: float, rng: random.Random):
    """Shuffled passes over every input; per-input timings and pass throughputs."""
    n = len(case.inputs)
    warm_up(case, rng)
    op, inputs, clock = case.op, case.inputs, time.perf_counter
    times: list[list[float]] = [[] for _ in range(n)]
    answers: list[dict] = [{} for _ in range(n)]
    throughputs = []
    gc.collect()
    gc.freeze()
    run_start = clock()
    try:
        # whole passes, until one more would overrun `seconds` by over half a pass
        while len(throughputs) < MIN_PASSES or clock() - run_start + pass_wall / 2 < seconds:
            order = list(range(n))
            rng.shuffle(order)
            pass_start = clock()
            for i in order:
                start = clock()
                answer = run_op(op, inputs[i])
                times[i].append(clock() - start)
                answers[i][answer] = answers[i].get(answer, 0) + 1
            pass_wall = clock() - pass_start
            throughputs.append(n / pass_wall)
    finally:
        gc.unfreeze()
    return times, answers, throughputs


def measure(case, setup_s: float, seconds: float, rng: random.Random):
    start = time.perf_counter()
    times, answers, throughputs = timed_passes(case, seconds, rng)
    timed = time.perf_counter() - start
    attempted = len(case.inputs) * len(throughputs)
    failed = check_answers(case, answers)
    checked = time.perf_counter() - start - timed
    latencies = [statistics.median(t) * 1e3 for t in times]
    p99 = statistics.quantiles(latencies, n=100, method="inclusive")[98]
    metrics = {
        "ops_per_s": statistics.median(throughputs),
        "op_p50_ms": statistics.median(latencies),
        "op_p99_ms": p99,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    record = {"inputs": len(case.inputs), "passes": len(throughputs),
              "measure_s": timed, "check_s": checked,
              "p99_tail_samples": sum(v > p99 for v in latencies),
              "fail_ratio": failed / attempted}
    return attempted, failed, metrics, record


def sweep(make_case, sizes, repeats):
    """(size, median seconds) per size, operations run, and operations failed."""
    points, attempted, failed = [], 0, 0
    for size in sizes:
        thunk, check = make_case(size)
        runs = []
        for _ in range(repeats(size)):
            start = time.perf_counter()
            answer = thunk()
            runs.append(time.perf_counter() - start)
            failed += not check(answer)
        attempted += len(runs)
        points.append((size, statistics.median(runs)))
    return points, attempted, failed


def traced(case_setup, seed: int, workdir: str, rng: random.Random):
    import tracing
    import workloads

    tracer = tracing.Tracer()
    tracer.install()
    tracer.op = "setup"
    try:
        case = case_setup(random.Random(seed), workdir)
    finally:
        tracer.op = None
        tracer.uninstall()
    warm_up(case, rng)
    order = list(range(len(case.inputs)))
    rng.shuffle(order)
    answers: list[dict] = [{} for _ in case.inputs]

    def one_pass():
        gc.collect()
        gc.freeze()
        start = time.perf_counter()
        for i in order:
            tracer.op = i
            answer = run_op(case.op, case.inputs[i])
            answers[i][answer] = answers[i].get(answer, 0) + 1
        tracer.op = None
        wall = time.perf_counter() - start
        gc.unfreeze()
        return wall

    # untraced passes on both sides of the traced one cancel a linear drift
    # of the host's speed out of the overhead ratio
    plain = one_pass()
    tracer.install()
    try:
        spanned = one_pass()
    finally:
        tracer.uninstall()
    plain = (plain + one_pass()) / 2
    attempted, failed = 3 * len(case.inputs), check_answers(case, answers)

    metrics = tracer.metrics()
    missing = [name for name in case.expect if not metrics[name]]
    if missing:
        raise SystemExit(f"traced run recorded no calls for {missing}: "
                         "a traced function was renamed or bypassed")

    record = {"trace_spans": len(tracer.spans)}
    for name, (factory, sizes, repeats) in SWEEPS.items():
        points, runs, wrong = sweep(getattr(workloads, factory), sizes, repeats)
        attempted, failed = attempted + runs, failed + wrong
        metrics[name] = tracing.loglog_slope(points)
        record[f"{name}_points_s"] = dict(points)
    metrics["trace.overhead_ratio"] = spanned / plain
    metrics["fail_ratio"] = failed / attempted
    return attempted, failed, metrics, record


def with_units(values: dict[str, float], spec: list[dict]) -> dict:
    """Attach each metric's unit from BENCHMARK.json; the names must match it."""
    names = [m["name"] for m in spec]
    if set(values) != set(names):
        raise SystemExit(f"metrics {sorted(set(values) ^ set(names))} do not match "
                         "BENCHMARK.json")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "polygauss" / "__init__.py").is_file():
        print(f"error: no polygauss sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    setup = workloads.WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rng = random.Random(f"passes-{args.seed}")
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        if args.trace:
            attempted, failed, values, record = traced(setup, args.seed, workdir, rng)
        else:
            case, setup_s = setup_case(setup, args.seed, workdir)
            attempted, failed, values, record = measure(case, setup_s, args.seconds, rng)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    record.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  loadavg=os.getloadavg(), cpu_affinity=sorted(os.sched_getaffinity(0)))
    print(json.dumps({"record": record}))
    metrics = with_units(values, spec["per_layer" if args.trace else "end_to_end"])
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
