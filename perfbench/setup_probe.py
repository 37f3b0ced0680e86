"""Time one cold set-up: import qsass, build the spec, resolve its problems.

Run in a fresh interpreter so the import is really paid:

    PYTHONPATH=src python3 perfbench/setup_probe.py <workload> <seed>

Prints the elapsed seconds on stdout.
"""

import sys
import time

from workloads import spec_kwargs


def main(workload, seed):
    kwargs = spec_kwargs(workload, seed)
    started = time.perf_counter()
    from qsass.bench import ExperimentSpec
    ExperimentSpec(**kwargs).resolve_problems()
    print(repr(time.perf_counter() - started))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
