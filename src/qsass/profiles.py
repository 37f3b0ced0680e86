"""Performance and data profiles over solver comparison tables.

A :class:`MetricTable` holds one metric value (iterations or samples to the
stopping time) per problem instance and solver, with ``inf`` marking a
failed run.  :func:`performance_profile` builds the classic
best-ratio cumulative curves; :func:`data_profile` builds budget curves in
units of ``dim + 1`` evaluations.  Both return plot-ready grids, and both
tables and curves round-trip through a plain text format.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, SpecFileError

TAU_GRID_POINTS = 64
TAU_GRID_MAX = 2.0 ** 10
ALPHA_GRID_POINTS = 64
ALPHA_GRID_MAX = 1e6


def default_tau_grid():
    """Log-spaced ratio grid for performance profiles."""
    return np.logspace(0.0, np.log10(TAU_GRID_MAX), TAU_GRID_POINTS)


def default_alpha_grid():
    """Log-spaced budget grid for data profiles."""
    return np.logspace(0.0, np.log10(ALPHA_GRID_MAX), ALPHA_GRID_POINTS)


@dataclass(frozen=True)
class MetricTable:
    """Metric values per (problem instance, solver); ``inf`` means failure.

    ``failure_reasons`` maps ``(problem, solver)`` to the stop reason of a
    failed run so tables keep the distinction between iteration- and
    sample-budget exhaustion.
    """

    metric: str
    problems: tuple[str, ...]
    dims: tuple[int, ...]
    solvers: tuple[str, ...]
    values: np.ndarray
    failure_reasons: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "problems", tuple(self.problems))
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "solvers", tuple(self.solvers))
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        # What the text format can carry: a name is one token, "=" marks a
        # header line, "#" a comment, and "failure" a failure line.
        reason_words = [word for key, reason in self.failure_reasons.items()
                        for word in (*key, reason)]
        for name in (self.metric, *self.problems, *self.solvers,
                     *reason_words):
            if not name or any(ch.isspace() for ch in name) or "=" in name \
                    or name.startswith("#"):
                raise ConfigurationError(
                    "table names must be non-empty, free of whitespace and "
                    f"'=', and must not start with '#': {name!r}")
        if "failure" in self.problems:
            raise ConfigurationError("'failure' cannot name a table problem")
        if len(set(self.solvers)) != len(self.solvers):
            raise ConfigurationError("duplicate solver names in table")
        if values.shape != (len(self.problems), len(self.solvers)):
            raise ConfigurationError(
                f"values shape {values.shape} does not match "
                f"{len(self.problems)} problems x {len(self.solvers)} solvers")
        if len(self.dims) != len(self.problems):
            raise ConfigurationError("need one dimension entry per problem")
        if np.any(np.isnan(values)) or np.any(values < 0):
            raise ConfigurationError("metric values must be >= 0 or inf")


@dataclass(frozen=True)
class ProfileCurves:
    """Sampled profile curves: ``fractions[i, j]`` at ``grid[i]``, solver ``j``."""

    kind: str
    grid: np.ndarray
    solvers: tuple[str, ...]
    fractions: np.ndarray
    dropped: tuple[str, ...] = ()


def performance_ratios(table: MetricTable):
    """Per-problem ratios to the best solver, after dropping all-fail rows.

    Returns ``(ratios, kept, dropped)`` where ``kept`` is the boolean row
    mask and ``dropped`` lists problems every solver failed on.  The best
    solver on each kept row gets ratio exactly 1; failures stay ``inf``.
    """
    best = table.values.min(axis=1)
    kept = np.isfinite(best)
    dropped = tuple(name for name, ok in zip(table.problems, kept) if not ok)
    values = table.values[kept]
    best = best[kept]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(values == best[:, None], 1.0, values / best[:, None])
    return ratios, kept, dropped


def performance_profile(table: MetricTable, tau_grid=None) -> ProfileCurves:
    """Fraction of problems with best-solver ratio at most tau, per solver."""
    if tau_grid is None:
        grid = default_tau_grid()
    else:
        grid = np.sort(np.asarray(tau_grid, dtype=float))
    if grid.size == 0 or np.any(grid < 1.0):
        raise ConfigurationError("tau grid values must be >= 1")
    ratios, _, dropped = performance_ratios(table)
    # All-fail problems have no best ratio, but they stay in the
    # denominator: no solver ever gets credit for them (all zero if none kept).
    counts = (ratios[None, :, :] <= grid[:, None, None]).sum(axis=1)
    fractions = counts / float(len(table.problems))
    return ProfileCurves("performance", grid, table.solvers, fractions, dropped)


def data_profile(table: MetricTable, alpha_grid=None, dims=None) -> ProfileCurves:
    """Fraction of problems solved within ``alpha * (dim + 1)`` metric units."""
    if alpha_grid is None:
        grid = default_alpha_grid()
    else:
        grid = np.sort(np.asarray(alpha_grid, dtype=float))
    if grid.size == 0 or np.any(grid < 0.0):
        raise ConfigurationError("alpha grid values must be >= 0")
    dims = np.asarray(table.dims if dims is None else dims, dtype=float)
    if dims.shape != (len(table.problems),):
        raise ConfigurationError("need one dimension entry per problem")
    budgets = grid[:, None, None] * (dims[None, :, None] + 1.0)
    fractions = (table.values[None, :, :] <= budgets).mean(axis=1)
    return ProfileCurves("data", grid, table.solvers, fractions)


def table_to_text(table: MetricTable) -> str:
    """Serialize a table to the delimited text format (inverse of
    :func:`table_from_text`)."""
    lines = [f"metric = {table.metric}",
             "solvers = " + "\t".join(table.solvers)]
    for row, (name, dim) in enumerate(zip(table.problems, table.dims)):
        cells = [repr(float(v)) for v in table.values[row]]
        lines.append("\t".join([name, str(dim)] + cells))
    for (problem, solver), reason in sorted(table.failure_reasons.items()):
        lines.append(f"failure\t{problem}\t{solver}\t{reason}")
    return "\n".join(lines) + "\n"


def table_from_text(text: str) -> MetricTable:
    """Parse the text format produced by :func:`table_to_text`."""
    metric = None
    solvers = None
    problems, dims, rows = [], [], []
    reasons = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if sep:
            key = key.strip()
            if key == "metric":
                metric = value.strip()
            elif key == "solvers":
                solvers = tuple(value.split())
            else:
                raise SpecFileError(f"line {lineno}: unknown key {key!r}")
            continue
        parts = line.split()
        if parts[0] == "failure":
            if len(parts) != 4:
                raise SpecFileError(f"line {lineno}: malformed failure entry")
            reasons[(parts[1], parts[2])] = parts[3]
            continue
        if solvers is None:
            raise SpecFileError(f"line {lineno}: data row before 'solvers ='")
        if len(parts) != 2 + len(solvers):
            raise SpecFileError(
                f"line {lineno}: expected problem, dim and {len(solvers)} values")
        problems.append(parts[0])
        try:
            dims.append(int(parts[1]))
            rows.append([float(v) for v in parts[2:]])
        except ValueError:
            raise SpecFileError(f"line {lineno}: malformed number") from None
    if metric is None or solvers is None:
        raise SpecFileError("table file needs 'metric =' and 'solvers =' lines")
    if not problems:
        raise SpecFileError("table file has no data rows")
    return MetricTable(metric=metric, problems=tuple(problems), dims=tuple(dims),
                       solvers=solvers, values=np.array(rows, dtype=float),
                       failure_reasons=reasons)


def curves_to_text(curves: ProfileCurves) -> str:
    """One column per solver on the sampled grid, plot-ready."""
    axis = "tau" if curves.kind == "performance" else "alpha"
    lines = [f"# {curves.kind} profile",
             "# " + "\t".join([axis] + list(curves.solvers))]
    for i, point in enumerate(curves.grid):
        cells = [repr(float(point))]
        cells += [repr(float(v)) for v in curves.fractions[i]]
        lines.append("\t".join(cells))
    if curves.dropped:
        lines.append("# dropped (all solvers failed): " + " ".join(curves.dropped))
    return "\n".join(lines) + "\n"
