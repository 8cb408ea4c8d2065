"""Declarative sweep grids: (scenario × seed × size) → ordered cells.

A :class:`SweepGrid` is plain data — a tuple of scenario specs, a tuple
of seeds, and a replicate count — and expands deterministically into
:class:`SweepCell` tasks.  The expansion order *is* the output order:
scenario-major, then seed, then replicate, exactly as given.  The pool
in :mod:`repro.sweep.runner` may complete cells in any order, but it
hands results back in grid order, so the emitted aggregate is identical
at any worker count.

Replicates exist for the divergence check, not for statistics: a
deterministic simulation must produce the same trace digest for the
same ``(scenario, seed)`` on every worker, so ``replicates=2`` re-runs
every cell and the aggregator fails the sweep if any pair of digests
disagrees (see :mod:`repro.sweep.aggregate`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..scenarios import ScenarioSpec
from ..scenarios.library import get_scenario

__all__ = ["SweepCell", "SweepGrid", "grid_from_names"]


@dataclass(frozen=True)
class SweepCell:
    """One pool task: run ``spec`` under ``seed``.

    ``index`` is the cell's position in grid order (``python -m
    repro.sweep grid`` prints it, and the cell's record carries it).
    """

    index: int
    spec: ScenarioSpec
    seed: int
    replicate: int = 0


@dataclass(frozen=True)
class SweepGrid:
    """The declarative grid; ``specs`` carry the size axis pre-applied
    (see :meth:`~repro.scenarios.ScenarioSpec.with_size`)."""

    specs: Tuple[ScenarioSpec, ...]
    seeds: Tuple[int, ...]
    replicates: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))
        object.__setattr__(self, "seeds", tuple(self.seeds))
        if not self.specs:
            raise ValueError("a sweep grid needs at least one scenario")
        if not self.seeds:
            raise ValueError("a sweep grid needs at least one seed")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        names = [spec.name for spec in self.specs]
        dupes = sorted({n for n in names if names.count(n) > 1})
        if dupes:
            raise ValueError(
                f"duplicate scenario names in grid: {dupes} (rows and "
                "digests are keyed by name; rename or drop the duplicates)"
            )
        seen = set()
        for seed in self.seeds:
            if seed in seen:
                raise ValueError(
                    f"duplicate seed {seed} in grid (use replicates= for "
                    "same-seed divergence checking, not a repeated seed)"
                )
            seen.add(seed)

    def cells(self) -> List[SweepCell]:
        """Expand to pool tasks in grid order."""
        out: List[SweepCell] = []
        index = 0
        for spec in self.specs:
            for seed in self.seeds:
                for replicate in range(self.replicates):
                    out.append(SweepCell(index, spec.with_seed(seed),
                                         seed, replicate))
                    index += 1
        return out

    @property
    def scenario_names(self) -> List[str]:
        return [spec.name for spec in self.specs]


def grid_from_names(
    names: Sequence[str],
    seeds: Sequence[int],
    sizes: Optional[Sequence[int]] = None,
    replicates: int = 1,
) -> SweepGrid:
    """Build a grid from library scenario names.

    With ``sizes``, each named scenario is expanded across the size axis
    via :meth:`ScenarioSpec.with_size` (names gain ``_n{size}``
    suffixes), so the grid is the full scenario × size × seed product.
    """
    specs: List[ScenarioSpec] = []
    for name in names:
        base = get_scenario(name)
        if sizes:
            specs.extend(base.with_size(size) for size in sizes)
        else:
            specs.append(base)
    return SweepGrid(specs=tuple(specs), seeds=tuple(seeds),
                     replicates=replicates)
