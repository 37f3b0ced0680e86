"""Spans around the calls into each qsass layer, recorded from outside.

The program has no timers of its own, so :func:`traced` patches each
layer's public entry points where their callers look them up (a module
global such as ``qsass.store.thin_qr``, or a method on the class) with a
wrapper that records a span: name, start, end, parent span, the grid cell
it belongs to, and one optional number describing the call (pairs held,
samples drawn, bytes written, ...).  Spans stay in memory in one list and
are aggregated or written out after the run.

Patches are process-wide and inherited by forked children, so a traced run
must stay serial (``workers=1``); :func:`traced` restores every original on
exit.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import time

NAME, START, END, PARENT, CELL, INFO = range(6)

ORACLE_SPANS = ("oracles.function_estimate", "oracles.gradient")
PROBLEM_CALLS = ("problems.objective", "problems.gradient")
SOLVER_SPANS = ("solver.run", "solver.step")


class Tracer:
    """An in-memory span log with a stack of open spans."""

    def __init__(self):
        self.spans = []
        self._stack = [-1]
        self.cell = None

    def wrap(self, name, fn, info=None, pre=None):
        """Return ``fn`` recording a span per call.

        ``pre(args)`` runs before the call; ``info(args, result, pre_value)``
        after it, and its value is stored with the span.
        """
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            before = pre(args) if pre is not None else None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.cell, None)
            if info is not None:
                spans[index] = (name, start, end, parent, self.cell,
                                info(args, result, before))
            return result

        return wrapper

    def wrap_scoped(self, name, fn, cell):
        """Like :meth:`wrap`, and every span inside the call carries the id
        ``cell(args)``."""
        inner = self.wrap(name, fn)

        def wrapper(*args):
            self.cell = cell(args)
            try:
                return inner(*args)
            finally:
                self.cell = None

        return wrapper

    def write_tsv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\tcell\tinfo\n")
            for i, span in enumerate(self.spans):
                fh.write(f"{i}\t{span[NAME]}\t{span[START]!r}\t{span[END]!r}\t"
                         f"{span[PARENT]}\t{span[CELL] or '-'}\t"
                         f"{'-' if span[INFO] is None else span[INFO]}\n")


def _patch_points(tracer):
    """``(owner, attribute, replacement)`` for every traced entry point."""
    from qsass import bench, solver, store
    from qsass.oracles import OracleModel
    from qsass.problems import Problem, VqeProblem
    from qsass.solver import RunTrace
    from qsass.store import CurvaturePairStore

    wrap = tracer.wrap

    def samples(args, result, before):
        return result.samples

    def pairs(args, result, before):
        return len(args[0])

    def insert_pre(args):
        return len(args[0])

    def insert_info(args, result, before):
        # 0 rejected, 1 accepted, 2 accepted and the oldest pair evicted.
        if not result:
            return 0
        return 2 if len(args[0]) == before else 1

    def capacity(args, result, before):
        return args[0].capacity

    def removed(args, result, before):
        return result

    def text_bytes(args, result, before):
        return len(result)

    from_text = RunTrace.__dict__["from_text"].__func__
    return [
        (bench, "run_experiment", wrap("bench.run_experiment",
                                       bench.run_experiment)),
        (bench, "run_cell", tracer.wrap_scoped(
            "bench.run_cell", bench.run_cell,
            lambda args: "/".join(str(i) for i in args[1:]))),
        (bench, "problem_from_entry", wrap("problems.build",
                                           bench.problem_from_entry)),
        (bench, "run", wrap("solver.run", bench.run)),
        (bench, "write_experiment", wrap("bench.write_experiment",
                                         bench.write_experiment)),
        (bench, "replay_trace", tracer.wrap_scoped(
            "bench.replay_trace", bench.replay_trace,
            lambda args: "replay:" + os.path.basename(args[0]))),
        (bench, "performance_profile", wrap("profiles.performance_profile",
                                            bench.performance_profile)),
        (bench, "data_profile", wrap("profiles.data_profile",
                                     bench.data_profile)),
        (solver, "qsass_step", wrap("solver.step", solver.qsass_step)),
        (solver, "parameter_shift_gradient",
         wrap("oracles.gradient", solver.parameter_shift_gradient)),
        (solver, "fd_gradient_estimate",
         wrap("oracles.gradient", solver.fd_gradient_estimate)),
        (store, "thin_qr", wrap("linalg.thin_qr", store.thin_qr)),
        (store, "solve_checked", wrap("linalg.solve_checked",
                                      store.solve_checked)),
        (store, "sym_eig_small", wrap("linalg.sym_eig_small",
                                      store.sym_eig_small)),
        (Problem, "objective", wrap("problems.objective", Problem.objective)),
        (Problem, "gradient", wrap("problems.gradient", Problem.gradient)),
        (VqeProblem, "measure_moments", wrap("problems.measure_moments",
                                             VqeProblem.measure_moments)),
        (OracleModel, "function_estimate",
         wrap("oracles.function_estimate", OracleModel.function_estimate,
              info=samples)),
        (OracleModel, "gradient_estimate",
         wrap("oracles.gradient", OracleModel.gradient_estimate,
              info=samples)),
        (CurvaturePairStore, "__init__",
         wrap("store.init", CurvaturePairStore.__init__, info=capacity)),
        (CurvaturePairStore, "try_insert",
         wrap("store.try_insert", CurvaturePairStore.try_insert,
              info=insert_info, pre=insert_pre)),
        (CurvaturePairStore, "apply_inverse",
         wrap("store.apply_inverse", CurvaturePairStore.apply_inverse,
              info=pairs)),
        (CurvaturePairStore, "extreme_eigenvalues",
         wrap("store.extreme_eigenvalues",
              CurvaturePairStore.extreme_eigenvalues)),
        (CurvaturePairStore, "enforce_spectrum",
         wrap("store.enforce_spectrum", CurvaturePairStore.enforce_spectrum,
              info=removed)),
        (RunTrace, "to_text", wrap("solver.to_text", RunTrace.to_text,
                                   info=text_bytes)),
        (RunTrace, "from_text",
         classmethod(wrap("solver.from_text", from_text))),
    ]


@contextlib.contextmanager
def traced(tracer):
    """Install the tracer's wrappers for the duration of the block."""
    points = _patch_points(tracer)
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in points]
    try:
        for owner, attr, replacement in points:
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _self_times(spans):
    """Span duration minus the time its direct children cover."""
    self_time = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            self_time[span[PARENT]] -= span[END] - span[START]
    return self_time


def layer_metrics(spans):
    """Per-layer counts and times from one traced grid + write + replay.

    Every value is a plain float or int; units live in ``BENCHMARK.json``.
    """
    self_time = _self_times(spans)
    calls = {}
    self_s = {}
    total_s = {}
    durations = {}
    for span, own in zip(spans, self_time):
        name = span[NAME]
        dur = span[END] - span[START]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        total_s[name] = total_s.get(name, 0.0) + dur
        durations.setdefault(name, []).append(dur)

    def us_p50(name):
        values = durations.get(name)
        return 1e6 * statistics.median(values) if values else 0.0

    ground_calls = 0
    ground_s = 0.0
    oracle_eval_s = 0.0
    oracle_samples = 0
    for span in spans:
        name = span[NAME]
        if name in PROBLEM_CALLS or name == "problems.measure_moments":
            parent = spans[span[PARENT]][NAME] if span[PARENT] >= 0 else ""
            if parent in SOLVER_SPANS:
                ground_calls += 1
                ground_s += span[END] - span[START]
            elif parent.startswith("oracles."):
                oracle_eval_s += span[END] - span[START]
        elif name in ORACLE_SPANS and span[INFO] is not None:
            # Shift-rule and finite-difference gradients carry no count of
            # their own; the function estimates they make are counted.
            oracle_samples += span[INFO]

    inserts = [span[INFO] for span in spans if span[NAME] == "store.try_insert"]
    removed = sum(span[INFO] for span in spans
                  if span[NAME] == "store.enforce_spectrum")
    capacities = [span[INFO] for span in spans
                  if span[NAME] == "store.init" and span[INFO] is not None]
    pairs_seen = [span[INFO] for span in spans
                  if span[NAME] == "store.apply_inverse"]

    cell_children = 0.0
    for span in spans:
        if span[PARENT] >= 0 and spans[span[PARENT]][NAME] == "bench.run_cell" \
                and span[NAME] in ("problems.build", "solver.run"):
            cell_children += span[END] - span[START]
    written = [span[INFO] for span in spans
               if span[NAME] == "solver.to_text" and span[PARENT] >= 0
               and spans[span[PARENT]][NAME] == "bench.write_experiment"]

    return {
        "problems.build.count": calls.get("problems.build", 0),
        "problems.build.s": total_s.get("problems.build", 0.0),
        "problems.ground_truth.calls": ground_calls,
        "problems.ground_truth.s": ground_s,
        "problems.oracle_eval.s": oracle_eval_s,
        "oracles.function_estimate.calls": calls.get("oracles.function_estimate", 0),
        "oracles.function_estimate.self_s": self_s.get("oracles.function_estimate", 0.0),
        "oracles.gradient.calls": calls.get("oracles.gradient", 0),
        "oracles.gradient.self_s": self_s.get("oracles.gradient", 0.0),
        "oracles.samples": oracle_samples,
        "store.apply_inverse.calls": calls.get("store.apply_inverse", 0),
        "store.apply_inverse.self_s": self_s.get("store.apply_inverse", 0.0),
        "store.apply_inverse.us_p50": us_p50("store.apply_inverse"),
        "store.apply_inverse.pairs_mean": (statistics.fmean(pairs_seen)
                                           if pairs_seen else 0.0),
        "store.extreme_eigenvalues.calls": calls.get("store.extreme_eigenvalues", 0),
        "store.extreme_eigenvalues.self_s": self_s.get("store.extreme_eigenvalues", 0.0),
        "store.extreme_eigenvalues.us_p50": us_p50("store.extreme_eigenvalues"),
        "store.enforce_spectrum.calls": calls.get("store.enforce_spectrum", 0),
        "store.enforce_spectrum.self_s": self_s.get("store.enforce_spectrum", 0.0),
        "store.try_insert.calls": len(inserts),
        "store.evicted": sum(1 for v in inserts if v == 2) + removed,
        "store.insert_accept_ratio": (sum(1 for v in inserts if v)
                                      / len(inserts) if inserts else 0.0),
        "store.pairs_max": max(capacities, default=0),
        "linalg.thin_qr.calls": calls.get("linalg.thin_qr", 0),
        "linalg.thin_qr.self_s": self_s.get("linalg.thin_qr", 0.0),
        "linalg.solve_checked.calls": calls.get("linalg.solve_checked", 0),
        "linalg.solve_checked.self_s": self_s.get("linalg.solve_checked", 0.0),
        "linalg.sym_eig_small.calls": calls.get("linalg.sym_eig_small", 0),
        "linalg.sym_eig_small.self_s": self_s.get("linalg.sym_eig_small", 0.0),
        "solver.run.self_s": self_s.get("solver.run", 0.0),
        "solver.step.calls": calls.get("solver.step", 0),
        "solver.step.self_s": self_s.get("solver.step", 0.0),
        "solver.step.us_p50": us_p50("solver.step"),
        "solver.to_text.s": total_s.get("solver.to_text", 0.0),
        "solver.trace_bytes": sum(written),
        "solver.from_text.s": total_s.get("solver.from_text", 0.0),
        "bench.cell.overhead_s": total_s.get("bench.run_cell", 0.0) - cell_children,
        "bench.aggregate_s": self_s.get("bench.run_experiment", 0.0),
        "profiles.performance_profile.s": total_s.get("profiles.performance_profile", 0.0),
        "profiles.data_profile.s": total_s.get("profiles.data_profile", 0.0),
    }


# Counts that repeat exactly at a fixed seed; two traced runs must agree.
EXACT_COUNTS = (
    "problems.build.count", "problems.ground_truth.calls",
    "oracles.function_estimate.calls", "oracles.gradient.calls",
    "oracles.samples", "store.apply_inverse.calls",
    "store.extreme_eigenvalues.calls", "store.enforce_spectrum.calls",
    "store.try_insert.calls", "store.evicted", "store.pairs_max",
    "linalg.thin_qr.calls", "linalg.solve_checked.calls",
    "linalg.sym_eig_small.calls", "solver.step.calls", "solver.trace_bytes",
)
