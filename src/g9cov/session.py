"""One-stop construction of the group, representations and covariant engine.

Building the session (group closure, Cayley table, conjugacy classes, 32
generator image pairs) takes a fraction of a second.  The images of all
192 elements (`mats`, per representation), the character table (`chars`)
and everything downstream are built on first read and cached, so tests
and CLI commands share one session per process.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .covariants import CovariantEngine
from .cyclo import CycNum
from .group import GroupTable, build_group
from .linalg import Mat
from .molien import DEFAULT_CUTOFF
# rep_matrices is re-exported: perfbench/spans.py wraps it under this name
from .reps import Representation, build_all, character_table, rep_matrices  # noqa: F401


class _LazyMatrices(Mapping):
    """rid -> images of all elements, built by the engine on first read."""

    def __init__(self, engine: CovariantEngine):
        self._engine = engine

    def __getitem__(self, rid: int) -> list[Mat]:
        return self._engine.matrices(rid)

    def __iter__(self):
        return iter(self._engine.reps)

    def __len__(self) -> int:
        return len(self._engine.reps)


@dataclass
class Session:
    table: GroupTable
    reps: list[Representation]
    engine: CovariantEngine

    @property
    def mats(self) -> Mapping[int, list[Mat]]:
        return _LazyMatrices(self.engine)

    @cached_property
    def chars(self) -> list[list[CycNum]]:
        return character_table(self.reps, self.table)

    def rep(self, rid: int) -> Representation:
        return self.engine.reps[rid]


@lru_cache(maxsize=2)
def get_session(cutoff: int = DEFAULT_CUTOFF) -> Session:
    table = build_group()
    reps = build_all(table)
    return Session(table, reps, CovariantEngine(table, reps, cutoff))
