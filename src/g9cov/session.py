"""One-stop construction of the group, representations and covariant engine.

Building the session (group closure, Cayley table, conjugacy classes, 32
representations) takes well under a second; everything downstream is cached
inside the CovariantEngine, so tests and CLI commands share one session
per process.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .covariants import CovariantEngine
from .cyclo import CycNum
from .group import GroupTable, build_group
from .linalg import Mat
from .molien import DEFAULT_CUTOFF
from .reps import Representation, build_all, character_table, rep_matrices


@dataclass
class Session:
    table: GroupTable
    reps: list[Representation]
    mats: dict[int, list[Mat]]
    chars: list[list[CycNum]]
    engine: CovariantEngine

    def rep(self, rid: int) -> Representation:
        return self.engine.reps[rid]


@lru_cache(maxsize=2)
def get_session(cutoff: int = DEFAULT_CUTOFF) -> Session:
    table = build_group()
    reps = build_all(table)
    mats = {r.rid: rep_matrices(r, table) for r in reps}
    chars = character_table(reps, table, mats)
    engine = CovariantEngine(table, reps, cutoff)
    engine._mats.update(mats)
    return Session(table, reps, mats, chars, engine)
