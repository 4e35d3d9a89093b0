"""One-stop construction of the group, representations and covariant engine.

Building the session (group closure, Cayley table, conjugacy classes, 32
generator image pairs) takes about 10 ms on a 2-core x86-64 Xeon box
(median of 15 cold processes) and builds no element image.  Everything
downstream is built on first read and cached; tests and CLI commands
share one session.  `traces` (the characters as Z[zeta_8] coordinates
over reps.DEN) reads five images and the central scalar per
representation (reps.class_traces), and the slice solver reads only the
generator images and the image of zI.  No command builds the images of
all 192 elements or imports numpy, verify included: it certifies the
homomorphism by G9's presentation and the census on Python ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

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
    def traces(self) -> tuple:
        """(32, 32, 4) class-trace numerators over reps.DEN as tuples, rows by rep id."""
        return character_table(self.reps, self.table)

    def rep(self, rid: int) -> Representation:
        return self.engine.reps[rid]


@lru_cache(maxsize=1)
def get_session() -> Session:
    table = build_group()
    reps = build_all(table)
    return Session(table, reps, CovariantEngine(table, reps))
