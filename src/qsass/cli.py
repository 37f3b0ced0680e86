"""Command line front end for experiments, profiles, and theory tables.

Subcommands
-----------
``run``            execute an experiment spec file and write its output tree
``profile``        regenerate profile curves from a metric table file
``theory``         print complexity constants and bounds for an input file
``list-problems``  show built-in problem families and measurement presets
``replay``         re-run a trace from its header and verify byte identity

Exit codes: 0 success, 1 replay mismatch, 2 malformed spec or input file
or an input or output path that cannot be read or written (a missing file,
a directory where a file belongs, a file where a directory belongs), 3
orchestrator time budget exhausted.  The ``QSASS_WORKERS`` environment
variable sets the worker-pool size unless ``--workers`` is given.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from dataclasses import replace

from .bench import (WORKER_COUNT_ENV, experiment_spec_from_file,
                    replay_trace, run_experiment, solver_labels,
                    write_experiment)
from .errors import (BudgetExhaustedError, ConfigurationError, RegistryError,
                     SpecFileError)
from .problems import list_builtin_problems, list_vqe_presets
from .profiles import (curves_to_text, data_profile, performance_profile,
                       table_from_text)
from .theory import report_text, theory_inputs_from_file


def _cmd_run(args):
    spec = experiment_spec_from_file(args.spec_file)
    if args.seed is not None:
        spec = replace(spec, master_seed=args.seed)
    out_dir = args.out if args.out is not None else spec.name
    # An output path that names a file fails before any cell runs.
    if os.path.exists(out_dir) and not os.path.isdir(out_dir):
        raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), out_dir)
    result = run_experiment(spec, workers=args.workers)
    write_experiment(result, out_dir)
    table = result.primary_table
    per_problem = len(table.problems)
    print(f"{len(result.traces)} runs -> {out_dir}")
    for j, solver in enumerate(solver_labels(spec.solvers)):
        solved = int((table.values[:, j] < float("inf")).sum())
        print(f"  {solver}: solved {solved}/{per_problem} instances")
    return 0


def _cmd_profile(args):
    with open(args.table_file, "r", encoding="utf-8") as fh:
        table = table_from_text(fh.read())
    out_dir = args.out if args.out is not None \
        else os.path.dirname(os.path.abspath(args.table_file))
    performance = performance_profile(table)
    data = data_profile(table)
    for name, curves in (("performance-profile.txt", performance),
                         ("data-profile.txt", data)):
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(curves_to_text(curves))
        print(f"wrote {path}")
    if performance.dropped:
        print("dropped (all solvers failed): "
              + " ".join(performance.dropped))
    return 0


def _cmd_theory(args):
    inputs = theory_inputs_from_file(args.inputs_file)
    print(report_text(inputs), end="")
    return 0


def _cmd_list_problems(args):
    print("built-in families (entry grammar: family:n=<dim>[:key=value...]):")
    for name in list_builtin_problems():
        print(f"  {name}")
    print("measurement presets (entry grammar: vqe:<preset>):")
    for name in list_vqe_presets():
        print(f"  {name}")
    print("quadratic manifest files: file:<path>")
    return 0


def _cmd_replay(args):
    match, _ = replay_trace(args.trace_file)
    if match:
        print(f"{args.trace_file}: replay is byte-identical")
        return 0
    print(f"{args.trace_file}: replay DIFFERS from the stored trace",
          file=sys.stderr)
    return 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qsass",
        description="Stochastic quasi-Newton step-search experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment spec file")
    p_run.add_argument("spec_file")
    p_run.add_argument("--out", help="output directory (default: spec name)")
    p_run.add_argument("--seed", type=int,
                       help="override the spec's master seed")
    p_run.add_argument("--workers", type=int,
                       help=f"worker processes (default: ${WORKER_COUNT_ENV} or 1)")
    p_run.set_defaults(func=_cmd_run)

    p_prof = sub.add_parser("profile",
                            help="regenerate profiles from a table file")
    p_prof.add_argument("table_file")
    p_prof.add_argument("--out", help="output directory (default: alongside "
                                      "the table)")
    p_prof.set_defaults(func=_cmd_profile)

    p_theory = sub.add_parser("theory",
                              help="print constants and bounds for an "
                                   "input file")
    p_theory.add_argument("inputs_file")
    p_theory.set_defaults(func=_cmd_theory)

    p_list = sub.add_parser("list-problems",
                            help="list problem families and presets")
    p_list.set_defaults(func=_cmd_list_problems)

    p_replay = sub.add_parser("replay",
                              help="re-run a trace and verify byte identity")
    p_replay.add_argument("trace_file")
    p_replay.set_defaults(func=_cmd_replay)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SpecFileError, RegistryError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # The message names the path, e.g. "[Errno 21] Is a directory: 'x'".
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExhaustedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
