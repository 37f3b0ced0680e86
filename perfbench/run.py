"""Run one benchmark workload through qsass's public experiment API.

    python3 perfbench/run.py --workload mixed-noise --seed 0 \
        --seconds 36 --trace 0

Run from the repository root; ``src/`` is imported in place.  With
``--trace 0`` the run prints the end-to-end metrics of ``BENCHMARK.json``,
measured with tracing off, times in reference seconds (``reference.py``);
with ``--trace 1`` it prints the per-layer metrics from a traced serial
run.  Either way the last line of standard output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``
and a fuller record (environment, cell counts, exact counts) is written to
``.perfbench_work/results/``.  ``--workload all`` runs every workload in
turn.  See ``perfbench/README.md`` for what each workload is for.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
from reference import NOMINAL_S, Reference  # noqa: E402
from workloads import WORKLOADS, spec_kwargs  # noqa: E402

# Set-up probes: a batch before the grid runs, one after each rep and a
# batch at the end, so that their median spans the run rather than one
# moment of it.
SETUP_BATCH = 3
# The serial grid (with one write and one replay round) runs once and is
# repeated while another rep still fits in the measuring time, at most
# MAX_REPS times.
MAX_REPS = 10
# A write is repeated within a rep at least MIN_WRITES times and until
# WRITE_SECONDS is spent on it (at most MAX_WRITES times), so that its
# median is not one short sample.
MIN_WRITES = 5
WRITE_SECONDS = 1.0
MAX_WRITES = 20
# Kernel runs per reference sample around a write or a set-up; cells and
# replayed traces, each one of many summed, take one.
BRACKET_RUNS = 3
POOL_WORKERS = 2
TAIL_BEYOND = 10
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class Checks:
    """Operations attempted and failed; the result is correct iff none failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def count(self, attempted, failed, what):
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.notes.append(f"{failed} of {attempted} failed: {what}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def last_level_cache():
    """Size of cpu0's highest-level cache as sysfs reports it, e.g. "32768K"."""
    best = (0, None)
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        best = max(best, (level, size))
    return best[1]


def environment_record():
    import numpy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "thread_variables": {name: os.environ.get(name)
                             for name in THREAD_VARIABLES},
        "last_level_cache": last_level_cache(),
    }


def measure_setup(workload, seed, count, times, reference):
    """Time ``count`` cold set-ups, each in a fresh interpreter: import
    qsass, build the spec, resolve its problems.  Appends to ``times``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for _ in range(count):
        before = reference.sample(BRACKET_RUNS)
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            env=env, capture_output=True, text=True, check=True, timeout=120)
        after = reference.sample(BRACKET_RUNS)
        times.add("setup", float(done.stdout.strip()),
                  reference.scale(before, after))


class ItemTimes:
    """Per item (a cell, a write, a replayed trace, ...), its wall times
    and its reference times over the reps of a run."""

    def __init__(self):
        self.wall = {}
        self.ref = {}

    def add(self, key, wall_s, scale):
        self.wall.setdefault(key, []).append(wall_s)
        self.ref.setdefault(key, []).append(wall_s * scale)


def medians(samples):
    return {key: statistics.median(values) for key, values in samples.items()}


def timed_grid(bench, spec, workers, reference=None):
    """Run the grid; return the result, its wall time and per-cell times.

    Cell times are gaps between ``progress`` callbacks, so the first one
    also holds ``resolve_problems``, and the entry ``"aggregate"`` is the
    rest: tables and census after the last cell.  With a pool they are
    completion gaps.

    With a ``reference``, its kernel is sampled before the grid, inside
    every ``progress`` callback and after the grid, and the fourth value
    returned is each cell's wall-to-reference factor.  Kernel time is left
    out of every gap and of the wall time.
    """
    clock = time.perf_counter
    samples = []
    stamps = []

    def progress(triple):
        finished = clock()
        if reference is not None:
            samples.append(reference.sample())
        stamps.append((triple, finished, clock()))

    if reference is not None:
        samples.append(reference.sample())
    started = clock()
    result = bench.run_experiment(spec, workers=workers, progress=progress)
    ended = clock()
    if reference is not None:
        samples.append(reference.sample())
    cells = {}
    resumed = started
    for triple, finished, next_resumed in stamps:
        cells[triple] = finished - resumed
        resumed = next_resumed
    cells["aggregate"] = ended - resumed
    scales = None
    if reference is not None:
        scales = {key: reference.scale(samples[i], samples[i + 1])
                  for i, key in enumerate(cells)}
    return result, sum(cells.values()), cells, scales


def trace_texts(result):
    return {triple: trace.to_text() for triple, trace in result.traces.items()}


def read_tree(root):
    root = Path(root)
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def compare(checks, reference, other, what):
    keys = set(reference) | set(other)
    bad = sum(1 for key in keys if reference.get(key) != other.get(key))
    checks.count(len(keys), bad, what)


def replay_subset(bench, result, per_column):
    """Trace file names of ``per_column`` cells of every (problem, solver)
    column, at evenly spaced ranks of its iteration counts (ties go to the
    lower seed index).

    A sample spread over the whole column follows the column's total work,
    which holds still from seed to seed far better than the cells near its
    median, whose iteration count moves with the median itself.
    """
    spec = result.spec
    columns = bench.solver_labels(spec.solvers)
    names = []
    for p, entry in enumerate(spec.problems):
        for v, label in enumerate(columns):
            ranked = sorted(range(int(spec.seeds)), key=lambda s: (
                result.traces[(p, v, s)].iterations, s))
            for i in range(per_column):
                s = ranked[(2 * i + 1) * len(ranked) // (2 * per_column)]
                names.append(f"{bench.entry_label(entry)}__"
                             f"{label.replace('#', '-')}__s{s}.trace")
    return names


def timed_replay(bench, checks, out_dir, names, times=None, reference=None):
    """Replay the named traces; with ``times``, add each one's wall time
    (and its reference factor) to it."""
    bad = 0
    before = reference.sample() if reference is not None else None
    for name in names:
        started = time.perf_counter()
        match, _ = bench.replay_trace(str(Path(out_dir) / "traces" / name))
        wall_s = time.perf_counter() - started
        bad += not match
        if times is not None:
            after = reference.sample()
            times.add(("replay", name), wall_s, reference.scale(before, after))
            before = after
    checks.count(len(names), bad, "replay_trace mismatch")


def check_round_trip(checks, solver, texts):
    bad = sum(1 for text in texts
              if solver.RunTrace.from_text(text).to_text() != text)
    checks.count(len(texts), bad, "RunTrace.from_text(t).to_text() != t")


def tail(values):
    """Value with TAIL_BEYOND values above it, and its percentile; the
    largest value when there are too few for that."""
    ordered = sorted(values)
    n = len(ordered)
    index = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return ordered[index], 100.0 * (index + 1) / n


def median_metric(result, metric):
    import numpy as np
    return float(np.median(result.tables[metric].values))


def exact_counts(result, texts):
    return {
        "cells": len(result.traces),
        "iterations": sum(t.iterations for t in result.traces.values()),
        "samples": sum(t.total_samples for t in result.traces.values()),
        "solved": sum(1 for t in result.traces.values() if t.hit),
        "trace_bytes": sum(len(text) for text in texts.values()),
    }


def summarise(item, counts):
    """The time metrics of one run from each item's median over its reps."""
    per_cell = [value for key, value in item.items()
                if isinstance(key, tuple) and key[0] == "cell"]
    grid_s = sum(per_cell) + item["aggregate"]
    tail_s, tail_pct = tail(per_cell)
    return {
        "setup_s": item["setup"],
        "grid_s": grid_s,
        "cell_ms_p50": 1e3 * statistics.median(per_cell),
        "cell_ms_tail": 1e3 * tail_s,
        "iters_per_s": counts["iterations"] / grid_s,
        "write_s": item["write"],
        "replay_s": sum(value for key, value in item.items()
                        if isinstance(key, tuple) and key[0] == "replay"),
    }, tail_pct, len(per_cell)


def run_end_to_end(workload, seed, seconds, checks, scratch):
    from qsass import bench, solver
    reference = Reference(WORKLOADS[workload]["reference"])
    # Writing text and importing modules are Python-bound on every workload.
    python_reference = (reference if reference.kind == "python"
                        else Reference("python"))
    times = ItemTimes()
    measure_setup(workload, seed, SETUP_BATCH, times, python_reference)
    spec = bench.ExperimentSpec(**spec_kwargs(workload, seed))
    replay_per_column = WORKLOADS[workload]["replay_per_column"]
    deadline = time.perf_counter() + seconds

    grid_walls = []
    first_texts = None
    while True:
        rep_started = time.perf_counter()
        result, grid_wall, cells, scales = timed_grid(bench, spec, 1,
                                                      reference)
        grid_walls.append(grid_wall)
        for key, wall_s in cells.items():
            times.add(key if key == "aggregate" else ("cell",) + key,
                      wall_s, scales[key])
        texts = trace_texts(result)
        if first_texts is None:
            first_texts = texts
            counts = exact_counts(result, texts)
            checks.count(len(texts), 0, "grid cells")
            check_round_trip(checks, solver, list(texts.values()))
            iters_p50 = median_metric(result, "iterations")
            samples_p50 = median_metric(result, "samples")
            replayed = replay_subset(bench, result, replay_per_column)
        else:
            compare(checks, first_texts, texts,
                    "trace differs from the first serial run at this seed")
        out = scratch / "serial"
        spent = 0.0
        for count in range(1, MAX_WRITES + 1):
            shutil.rmtree(out, ignore_errors=True)
            before = python_reference.sample(BRACKET_RUNS)
            started = time.perf_counter()
            bench.write_experiment(result, out)
            wall_s = time.perf_counter() - started
            after = python_reference.sample(BRACKET_RUNS)
            times.add("write", wall_s, python_reference.scale(before, after))
            spent += wall_s
            if count >= MIN_WRITES and spent >= WRITE_SECONDS:
                break
        del result
        timed_replay(bench, checks, out, replayed, times, reference)
        shutil.rmtree(out)
        measure_setup(workload, seed, 1, times, python_reference)
        if len(grid_walls) == 1:
            # Later reps repeat the same work; reading the peak here keeps it
            # from depending on how many reps the run had time for.
            rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                      + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        now = time.perf_counter()
        if len(grid_walls) >= MAX_REPS or now + (now - rep_started) > deadline:
            break
    measure_setup(workload, seed, SETUP_BATCH, times, python_reference)

    values, tail_pct, cell_count = summarise(medians(times.ref), counts)
    values.update({
        "solved_frac": counts["solved"] / counts["cells"],
        "iters_p50": iters_p50,
        "samples_p50": samples_p50,
        "peak_rss_mb": rss_kb / 1024.0,
    })
    wall_values, _, _ = summarise(medians(times.wall), counts)
    details = {
        "reps": len(grid_walls),
        "cell_ms_tail_percentile": tail_pct,
        "cell_count": cell_count,
        "exact_counts": counts,
        "reference_kernel": reference.kind,
        "reference_kernel_ms_p50": 1e3 * statistics.median(reference.history),
        "wall_metrics": wall_values,
        "grid_wall_s_reps": grid_walls,
        "write_wall_s_reps": times.wall["write"],
        "setup_wall_s_reps": times.wall["setup"],
    }
    return values, details


def run_traced(workload, seed, checks, scratch):
    """Pool run, untraced serial run, then two traced serial runs.

    All four run the same grid at the same seed, so their trace bytes must
    agree, and the two traced runs must agree on every exact count.
    """
    from qsass import bench
    import tracing
    spec = bench.ExperimentSpec(**spec_kwargs(workload, seed))

    pooled, grid_w2_s, _, _ = timed_grid(bench, spec, POOL_WORKERS)
    bench.write_experiment(pooled, scratch / "pool")
    pooled_tree = read_tree(scratch / "pool")
    del pooled
    result, grid_s, cells, _ = timed_grid(bench, spec, 1)
    reference = trace_texts(result)
    replayed = replay_subset(bench, result,
                             WORKLOADS[workload]["replay_per_column"])
    checks.count(len(reference), 0, "grid cells")
    bench.write_experiment(result, scratch / "serial")
    compare(checks, read_tree(scratch / "serial"), pooled_tree,
            f"workers={POOL_WORKERS} output differs from serial")
    del result

    layers = []
    for rep in range(2):
        tracer = tracing.Tracer()
        out = scratch / f"traced-{rep}"
        with tracing.traced(tracer):
            result = bench.run_experiment(spec, workers=1)
            bench.write_experiment(result, out)
            timed_replay(bench, checks, out, replayed)
        compare(checks, reference, trace_texts(result),
                "traced run changed the trace bytes")
        del result
        tree = read_tree(out)
        metrics = tracing.layer_metrics(tracer.spans)
        metrics["bench.write.bytes"] = sum(len(data) for data in tree.values())
        metrics["bench.write.files"] = len(tree)
        metrics["trace.grid_s"] = sum(
            span[tracing.END] - span[tracing.START] for span in tracer.spans
            if span[tracing.NAME] == "bench.run_experiment")
        layers.append(metrics)
        if rep == 0:
            span_count = len(tracer.spans)
            spans_path = WORK / "spans" / f"{workload}-seed{seed}.tsv"
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            tracer.write_tsv(spans_path)
        del tracer

    mismatched = [name for name in tracing.EXACT_COUNTS
                  if layers[0][name] != layers[1][name]]
    checks.count(len(tracing.EXACT_COUNTS), len(mismatched),
                 "exact counts differ between two traced runs: "
                 + ", ".join(mismatched))
    values = {}
    for name, first in layers[0].items():
        if isinstance(first, int):
            values[name] = first
        else:
            values[name] = statistics.median([first, layers[1][name]])
    del cells["aggregate"]
    cell_sum = sum(cells.values())
    speedup = grid_s / grid_w2_s
    values.update({
        "bench.pool.grid_w2_s": grid_w2_s,
        "bench.pool.speedup": speedup,
        "bench.pool.efficiency": speedup / POOL_WORKERS,
        "bench.pool.bound_s": max(cell_sum / POOL_WORKERS, max(cells.values())),
        "trace.overhead_s": values["trace.grid_s"] - grid_s,
    })
    details = {"grid_s": grid_s, "grid_w2_s": grid_w2_s,
               "span_count": span_count}
    return values, details


def load_metric_specs(trace):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def format_value(value):
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def run_workload(args):
    metric_specs = load_metric_specs(args.trace)
    checks = Checks()
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        if args.trace:
            values, details = run_traced(args.workload, args.seed, checks,
                                         scratch)
        else:
            values, details = run_end_to_end(args.workload, args.seed,
                                             args.seconds, checks, scratch)
    except Exception as exc:
        # A cell or check that raises is a failed operation, not a crash:
        # report it with the traceback and no metrics.
        traceback.print_exc()
        checks.count(1, 1, f"raised {exc!r}")
        print("# FAILED " + checks.notes[-1])
        print(json.dumps({"correct": False, "attempted": checks.attempted,
                          "failed": checks.failed, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    metrics = {}
    for entry in metric_specs:
        value = values[entry["name"]]
        if isinstance(value, float) and not math.isfinite(value):
            checks.count(1, 1, f"{entry['name']} is not finite")
            value = None
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    env = environment_record()
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "env": env, "details": details,
              "notes": checks.notes, "metrics": metrics}
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    with open(results / f"{args.workload}-seed{args.seed}-trace{args.trace}"
              ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, metric in metrics.items():
        print(f"{name:36s} {format_value(metric['value']):>14s} "
              f"{metric['unit']}")
    if "cell_ms_tail_percentile" in details:
        print(f"# cell_ms_tail is p{details['cell_ms_tail_percentile']:.1f} of "
              f"{details['cell_count']} cells; {details['reps']} serial reps")
    if "wall_metrics" in details:
        print(f"# times above are in reference seconds ("
              f"{details['reference_kernel']} kernel, median "
              f"{details['reference_kernel_ms_p50']:.3f} ms against a "
              f"nominal {1e3 * NOMINAL_S:g} ms); in wall seconds:")
        for name, value in details["wall_metrics"].items():
            print(f"#   {name:34s} {format_value(value):>14s}")
    if "trace.overhead_s" in values:
        print(f"# tracing overhead: {values['trace.overhead_s']:.3f} s on an "
              f"untraced grid of {details['grid_s']:.3f} s")
    print("# env " + json.dumps(env, sort_keys=True))
    for note in checks.notes:
        print("# FAILED " + note)
    correct = checks.failed == 0
    print(json.dumps({"correct": correct, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args):
    """Every workload in its own process; the last line merges them."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        sys.stderr.write(done.stderr)
        if done.returncode != 0 and not lines:
            return done.returncode
        status = status or done.returncode
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(merged))
    return status


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "qsass" / "__init__.py").is_file():
        sys.stderr.write(f"no qsass sources under {SRC}; run from the "
                         "repository root of a full checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
