"""The sweep engine: named axes -> one batch of replays -> tables.

Every experiment in this package has one shape: a cartesian product of
named axes (traces × schemes × attacks × seeds ...), one replay per
point, and a text table over the results.  Three small parts carry it:

* :class:`Sweep` -- named axes plus a function from one coordinate to a
  :class:`~repro.experiments.parallel.ReplaySpec`; :meth:`Sweep.run`
  executes every point in one :func:`~repro.experiments.parallel.
  run_replays` call, so each experiment fans out under
  ``$REPRO_WORKERS`` for free.
* :class:`Grid` -- the results keyed by coordinates, with the single
  lookup ``grid.cell(scheme="vanilla", trace="TRC1")``.  Experiments
  that need a private world or live objects fill a grid themselves.
* :class:`Table` -- ``(header, fn)`` columns over the groups of one or
  more row axes, rendered by :func:`~repro.analysis.report.
  format_table`.  The reductions below (mean, sums, mean ± std, knee,
  percentiles) are what the column functions are built from.

An experiment is therefore a frozen ``*Spec`` plus a ``run(spec)`` that
declares its axes, its replay function and its columns, and returns
``grid.tabulate(Table(...))``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.analysis.report import format_table
from repro.experiments.parallel import ReplaySpec, run_replays

#: One table column: a header and a function of the row's group.
Column = tuple[str, Callable[["Grid"], object]]


@dataclass(frozen=True)
class Grid:
    """Cells over the cartesian product of named axes, row-major.

    ``at`` holds the coordinates a :meth:`where` / :meth:`groups` call
    fixed; ``tables`` are the renderers :meth:`render` joins.
    """

    axes: Mapping[str, tuple]
    cells: tuple
    tables: tuple[Callable[["Grid"], str], ...] = ()
    at: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, values in self.axes.items():
            if not values:
                raise ValueError(f"axis {name!r} is empty")
            if len(set(values)) != len(values):
                raise ValueError(f"axis {name!r} repeats a value: {values}")
        if len(self.cells) != math.prod(map(len, self.axes.values())):
            raise ValueError("cell count does not match the axes")

    def points(self) -> Iterator[dict[str, Any]]:
        """Every coordinate, in cell order."""
        return _points(self.axes)

    def cell(self, **coords: Any) -> Any:
        """The cell at one full coordinate.

        Raises:
            KeyError: when an axis is missing or a value is not on it.
        """
        if set(coords) != set(self.axes):
            raise KeyError(f"need one value per axis {tuple(self.axes)}")
        return self.where(**coords).one

    @property
    def one(self) -> Any:
        """The single cell of a one-cell grid (e.g. a table row)."""
        if len(self.cells) != 1:
            raise ValueError(f"grid has {len(self.cells)} cells, not one")
        return self.cells[0]

    def where(self, **coords: Any) -> "Grid":
        """The sub-grid with the named axes fixed to one value each.

        Raises:
            KeyError: when a value is not on its axis.
        """
        for name, value in coords.items():
            if value not in self.axes.get(name, ()):
                raise KeyError(f"{name}={value!r}")
        return Grid(
            axes={n: v for n, v in self.axes.items() if n not in coords},
            cells=self._cells_where(
                lambda point: all(point[n] == v for n, v in coords.items())
            ),
            at={**self.at, **coords},
        )

    def select(self, **subsets: Sequence) -> "Grid":
        """The sub-grid keeping only ``subsets`` of the named axes."""
        axes = {**self.axes, **{n: tuple(v) for n, v in subsets.items()}}
        return Grid(
            axes=axes,
            cells=self._cells_where(
                lambda point: all(point[n] in axes[n] for n in subsets)
            ),
            at=self.at,
        )

    def _cells_where(self, keep: Callable[[dict[str, Any]], bool]) -> tuple:
        return tuple(
            cell for point, cell in zip(self.points(), self.cells)
            if keep(point)
        )

    def groups(self, *axes: str) -> Iterator["Grid"]:
        """One sub-grid per combination of ``axes`` values, in order."""
        for values in itertools.product(*(self.axes[name] for name in axes)):
            yield self.where(**dict(zip(axes, values)))

    def values(self, attr: str) -> list[Any]:
        """``attr`` of every cell, in cell order."""
        return [getattr(cell, attr) for cell in self.cells]

    def total(self, attr: str) -> Any:
        """Sum of ``attr`` over the cells (e.g. a scheme's traces)."""
        return sum(self.values(attr))

    def mean(self, attr: str) -> float:
        """Mean of ``attr`` over the cells."""
        samples: list[float] = self.values(attr)
        return sum(samples) / len(samples)

    def tabulate(self, *tables: Callable[["Grid"], str]) -> "Grid":
        """This grid, rendered by ``tables`` (joined by blank lines)."""
        return replace(self, tables=tables)

    def render(self) -> str:
        return "\n\n".join(table(self) for table in self.tables)


@dataclass(frozen=True)
class Sweep:
    """Named axes plus the replay one coordinate stands for."""

    axes: Mapping[str, Sequence]
    replay: Callable[..., ReplaySpec]
    """Called with one keyword argument per axis."""

    def run(self, workers: int | None = None) -> Grid:
        """Every point through one :func:`run_replays` batch."""
        axes = {name: tuple(values) for name, values in self.axes.items()}
        specs = [self.replay(**point) for point in _points(axes)]
        return Grid(axes=axes, cells=tuple(run_replays(specs, workers)))


def _points(axes: Mapping[str, Sequence]) -> Iterator[dict[str, Any]]:
    """The cartesian product of ``axes`` as coordinate dicts, row-major."""
    for values in itertools.product(*axes.values()):
        yield dict(zip(axes, values))


@dataclass(frozen=True)
class Table:
    """One text table: a row per group of ``rows``, one cell per column."""

    title: str
    rows: tuple[str, ...]
    columns: Sequence[Column]

    def __call__(self, grid: Grid) -> str:
        return format_table(
            [header for header, _ in self.columns],
            [
                [fn(group) for _, fn in self.columns]
                for group in grid.groups(*self.rows)
            ],
            title=self.title,
        )


# ---------------------------------------------------------------------------
# Column builders and group reductions
# ---------------------------------------------------------------------------


def coord(axis: str) -> Callable[[Grid], object]:
    """The row's value on ``axis`` (a label column)."""
    return lambda group: group.at[axis]


def percent(attr: str, digits: int = 2) -> Callable[[Grid], str]:
    """The group mean of ``attr`` as ``'12.34 %'``."""
    return lambda group: f"{group.mean(attr) * 100:.{digits}f} %"


def per_stub(group: Grid, attr: str) -> float:
    """``attr`` summed over the group's cells, per stub query (0 when
    the group saw none)."""
    stub: int = group.total("sr_queries")
    spent: int = group.total(attr)
    return spent / stub if stub else 0.0


def pivot(
    axis: str,
    values: Sequence,
    header: Callable[[Any], str],
    fmt: Callable[[Any], object],
) -> list[Column]:
    """One column per ``values`` of ``axis``; ``fmt`` sees that cell."""
    return [
        (header(value), lambda group, value=value: fmt(
            group.cell(**{axis: value})))
        for value in values
    ]


def mean_std(samples: Sequence[float]) -> tuple[float, float]:
    """Mean and sample standard deviation (0 for a single sample)."""
    if not samples:
        raise ValueError("no samples")
    mean = sum(samples) / len(samples)
    if len(samples) == 1:
        return mean, 0.0
    variance = sum((x - mean) ** 2 for x in samples) / (len(samples) - 1)
    return mean, math.sqrt(variance)


def format_spread(samples: Sequence[float]) -> str:
    """``'12.34 ± 0.56 %'`` -- a rate's mean ± std over seeds."""
    mean, std = mean_std(samples)
    return f"{mean * 100:.2f} ± {std * 100:.2f} %"


def knee(
    group: Grid, axis: str, threshold: float,
    attr: str = "sr_attack_failure_rate",
) -> Any | None:
    """First ``axis`` value whose ``attr`` exceeds ``threshold`` (None
    when the group stays under it across the whole axis)."""
    for value in group.axes[axis]:
        if getattr(group.cell(**{axis: value}), attr) > threshold:
            return value
    return None


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(q * len(ordered)))
    return ordered[index]
