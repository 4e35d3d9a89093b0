"""One-stop construction of the group, representations and covariant engine.

Building the session (group closure, Cayley table, conjugacy classes, 32
integer generator image pairs) takes about 5 ms on a 2-core x86-64 Xeon
box (median of 15 in one process) and builds no element image.  The
integer images (`engine.matrices(rid)`, see reps), their class traces
(`traces`, the characters as integer Z[zeta_8] coordinates over reps.DEN)
and everything downstream are built on first read and cached; tests and CLI
commands share one session.  `traces` and `molien --rep all` build every
missing image, one reps.rep_matrices call per dimension; any other read
builds one representation's images.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .covariants import CovariantEngine
from .group import GroupTable, build_group
# rep_matrices is re-exported: perfbench/spans.py wraps it under this name
from .reps import Representation, build_all, character_table, rep_matrices  # noqa: F401


@dataclass
class Session:
    table: GroupTable
    reps: list[Representation]
    engine: CovariantEngine

    @cached_property
    def traces(self) -> np.ndarray:
        """(32, 32, 4) class-trace numerators over reps.DEN, rows by rep id."""
        self.engine.build_images(list(self.engine.reps))
        return character_table([self.engine.matrices(r.rid) for r in self.reps], self.table)

    def rep(self, rid: int) -> Representation:
        return self.engine.reps[rid]


@lru_cache(maxsize=1)
def get_session() -> Session:
    table = build_group()
    reps = build_all(table)
    return Session(table, reps, CovariantEngine(table, reps))
