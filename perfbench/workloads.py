"""The benchmark's workloads, as plain data.

Nothing here imports ``qsass``: the set-up probe times that import, so it
must be able to read a workload's spec arguments before the clock starts.

Each workload is a grid of (problem, solver, seed) cells handed to
``qsass.bench.run_experiment`` unchanged; the benchmark's ``--seed`` becomes
``ExperimentSpec.master_seed``.  ``seeds`` (cells per problem and solver)
is the run-length choice: enough cells that medians and totals hold still from
seed to seed, few enough that a run fits its time.  ``replay_per_column``
is how many cells of every (problem, solver) column ``replay_trace``
re-runs, taken around the column's median iteration count.  ``reference``
names the kernel of ``reference.py`` whose work the cells resemble.
"""

from __future__ import annotations

WORKLOADS = {
    "mixed-noise": {
        "spec": {
            "name": "bench-mixed-noise",
            "problems": ("cosine-chain:n=4",),
            "solvers": ("qsass", "qsass-bfgs"),
            "oracle": "mixed-gaussian",
            # The default budget (2000 iterations) makes a stuck qsass-bfgs
            # cell ~75x dearer than a solved one, so the grid's cost would
            # hinge on a handful of cells.  Solves take ~100 iterations at
            # most, and 200 still grows the unbounded store past 100 pairs.
            "max_iterations": 200,
            # A cell's iteration count spans 20 to 200, and both columns draw
            # the same noise, so a seed's hard cells are hard for both: at
            # 100 seeds the grid's total iterations move by 14% (IQR over
            # median) from master seed to master seed, at 200 by 7%.  One
            # such grid fills a run, which is steadier than two reps of a
            # grid half the size.  The ten slowest cells are all stuck
            # qsass-bfgs cells, so cell_ms_tail does not straddle two kinds
            # of cell.
            "seeds": 250,
        },
        "replay_per_column": 16,
        "reference": "python",
    },
    "highdim": {
        "spec": {
            "name": "bench-highdim",
            "problems": ("quadratic:n=256:condition=1000",),
            "solvers": ("qsass", "sass", "qsass-bfgs"),
            "oracle": "additive",
            # The three columns' cell times barely overlap.  With 4 seeds the
            # median of the 12 cells (6th and 7th) falls inside the middle
            # column and cell_ms_tail (the 2nd, with ten beyond it) inside
            # the fastest; with 5, cell_ms_tail was the 5th of 15, on the
            # edge between two columns, and jumped from seed to seed.
            "seeds": 4,
        },
        "replay_per_column": 1,
        "reference": "blas",
    },
    "vqe-shots": {
        "spec": {
            "name": "bench-vqe-shots",
            # h2-like cells take ~10 ms and lih-like cells ~150 ms, so with
            # both in the grid every median sat on the gap between them and
            # jumped from seed to seed; lih-like carries the oracle load.
            "problems": ("vqe:lih-like",),
            "solvers": ("qsass", "sass"),
            "oracle": "vqe-measurement",
            "stopping": "optimality-gap",
            "stop_value": 1e-3,
            "eps_f": 1e-4,
            "kappa": 0.5,
            "max_iterations": 500,
            "max_samples": 1e8,
            # The median stop iteration is a small integer (~30) and moves
            # by a few iterations from master seed to master seed; 64 cells
            # hold it, and the solved fraction, within ~7%.
            "seeds": 32,
        },
        "replay_per_column": 4,
        "reference": "python",
    },
}


def spec_kwargs(workload, seed):
    """Keyword arguments of the workload's ``ExperimentSpec`` at ``seed``."""
    return dict(WORKLOADS[workload]["spec"], master_seed=int(seed))
