"""Enumeration of the reflection group G9 from its two generators.

The group is built by breadth-first closure under right multiplication by
the generators, so every element carries a shortest generator word and the
element order (BFS layer, then discovery order) is deterministic; its
products are int64 coordinates over DEN = 2, as G9 lies in (1/2) Z[zeta_8].
On top of the closure we compute the Cayley table (read off the BFS tree, so
only the generators are multiplied as matrices), inverses, element orders
and the conjugacy classes, and align the classes with the reference column
order: the 32 classes are represented by the literal matrices

    z^k I (k=0..7),  z^k D^2 (k=0..3),  z^k D (k=0..7),
    z^k T (k=0..3),  z^k TD (k=0..7),

with z = zeta_8.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cyclo import CycNum, HALF_SQRT2, I_UNIT
from .linalg import Mat, right_factor

CLOSURE_LIMIT = 10_000
DEN = 2
COORD_BOUND = 2 ** 24       # n x n products sum 4n terms below 2^48: int64 for n < 2^13


class NotFinitelyClosedError(RuntimeError):
    """Closure exceeded the element budget; generators generate an infinite group."""


class ReferenceMismatchError(RuntimeError):
    """The enumerated group does not match the reference class structure."""


def standard_generators() -> tuple[Mat, Mat]:
    """The defining 2x2 generators T = (1/sqrt2)[[1,1],[1,-1]] and D = diag(1, i)."""
    h = HALF_SQRT2
    t = Mat.from_rows([[h, h], [h, -h]])
    d = Mat.diagonal([1, I_UNIT])
    return t, d


@dataclass(frozen=True, eq=False)
class GroupElement:
    index: int
    word: str        # left-to-right product of generators, "" for the identity
    parent: int      # index of the element this was discovered from (-1 for identity)
    last: str        # generator appended to the parent's word ("" for identity)
    coords: np.ndarray   # (n, n, 4) int64 coordinates over DEN; `mat` decodes on first read

    @cached_property
    def mat(self) -> Mat:
        n = len(self.coords)
        return Mat(n, n, [CycNum._make(tuple(c), DEN)
                          for c in self.coords.reshape(-1, 4).tolist()])


def _coords(mat: Mat) -> tuple[int, ...] | None:
    """Entry coordinates over DEN, or None outside (1/DEN) Z[zeta_8] or COORD_BOUND."""
    keys = [e.key() for e in mat.entries]
    if any(DEN % k[4] for k in keys):
        return None
    out = tuple(n * (DEN // k[4]) for k in keys for n in k[:4])
    return out if max(map(abs, out)) <= COORD_BOUND else None


class GroupTable:
    """The closed group with Cayley table, inverses, orders and classes."""

    def __init__(self, elements: list[GroupElement], index: dict, gens: dict[str, Mat],
                 right: dict[str, list[int]]):
        self.elements = elements
        self.index = index      # coordinates over DEN, flattened (see _coords) -> index
        self.gens = gens
        self.right = right      # right[name][i] = index of element i * gens[name]
        self.product: list[list[int]] | None = None
        self.inverse: list[int] | None = None
        self.orders: list[int] | None = None
        self.classes: list[list[int]] | None = None   # blocks of element indices
        self.class_of: list[int] | None = None        # element index -> block id
        self.class_reps: list[int] | None = None      # reference-ordered representatives
        self.class_block_order: list[int] | None = None  # reference position -> block id

    def __len__(self):
        return len(self.elements)

    def lookup(self, mat: Mat) -> int:
        """Index of a matrix in the group; raises KeyError if absent."""
        return self.index[_coords(mat)]

    # -- derived structure -------------------------------------------------------

    def compute_products(self) -> None:
        """Cayley table read off the BFS tree, and the inverse table.

        Element j is parent(j) * last(j) with parent(j) < j, so by
        associativity i * j = (i * parent(j)) * last(j): the right action of
        each generator, which the closure recorded, is the only matrix product.
        """
        n = len(self.elements)
        right = {name: np.array(perm) for name, perm in self.right.items()}
        cols = np.empty((n, n), dtype=np.int64)     # cols[j, i] = i * j
        cols[0] = np.arange(n)                      # element 0 is the identity
        for e in self.elements[1:]:
            cols[e.index] = right[e.last][cols[e.parent]]
        self.product = cols.T.tolist()
        self.inverse = [row.index(0) for row in self.product]
        self.identity = 0

    def compute_orders(self) -> None:
        n = len(self.elements)
        orders = []
        for i in range(n):
            k = 1
            x = i
            while x != self.identity:
                x = self.product[x][i]
                k += 1
            orders.append(k)
        self.orders = orders

    def compute_classes(self) -> None:
        """Brute-force conjugacy classes via the Cayley table."""
        n = len(self.elements)
        class_of = [-1] * n
        blocks: list[list[int]] = []
        for h in range(n):
            if class_of[h] >= 0:
                continue
            bid = len(blocks)
            orbit = set()
            for g in range(n):
                orbit.add(self.product[self.product[g][h]][self.inverse[g]])
            block = sorted(orbit)
            for x in block:
                class_of[x] = bid
            blocks.append(block)
        self.classes = blocks
        self.class_of = class_of


def closure(gens: list[tuple[str, Mat]], limit: int = CLOSURE_LIMIT) -> GroupTable:
    """Breadth-first closure of a generating set of invertible matrices.

    Each element records a minimal-length word over the generator names.
    Each BFS layer is multiplied by one generator at a time in int64
    coordinates over DEN; ValueError names a generator or word that leaves
    (1/DEN) Z[zeta_8] or COORD_BOUND.  Raises NotFinitelyClosedError past
    ``limit`` elements.
    """
    n = gens[0][1].rows
    factors = {}
    for name, g in gens:
        if (c := _coords(g)) is None:
            raise ValueError(f"generator {name} leaves (1/{DEN}) Z[zeta_8] or COORD_BOUND")
        factors[name] = right_factor(np.array(c, dtype=np.int64).reshape(n, n, 4))
    ident = np.eye(n, dtype=np.int64)[:, :, None] * np.array([DEN, 0, 0, 0])
    elements = [GroupElement(0, "", -1, "", ident)]
    index = {tuple(ident.ravel().tolist()): 0}
    right: dict[str, list[int]] = {name: [] for name, _ in gens}
    frontier = [0]
    while frontier:
        length = len(elements[frontier[0]].word) + 1
        layer = np.stack([elements[i].coords for i in frontier]).reshape(-1, 4 * n)
        prods, keys = {}, {}
        for name, factor in factors.items():
            prod, rem = np.divmod(layer @ factor, DEN)
            if rem.any() or np.abs(prod).max() > COORD_BOUND:
                raise ValueError(f"a word of length {length} ending in {name} leaves "
                                 f"(1/{DEN}) Z[zeta_8] or COORD_BOUND")
            prods[name] = prod.reshape(-1, n, n, 4)
            keys[name] = list(map(tuple, prod.reshape(len(frontier), -1).tolist()))
        next_frontier = []
        for row, ei in enumerate(frontier):
            for name in factors:
                k = keys[name][row]
                if k not in index:
                    idx = len(elements)
                    if idx >= limit:
                        raise NotFinitelyClosedError(f"closure exceeded {limit} elements")
                    elements.append(GroupElement(idx, elements[ei].word + name, ei, name,
                                                 prods[name][row]))
                    index[k] = idx
                    next_frontier.append(idx)
                right[name].append(index[k])
        frontier = next_frontier
    return GroupTable(elements, index, dict(gens), right)


def build_group() -> GroupTable:
    """Enumerate G9 with the Cayley table, orders and classes filled in."""
    t, d = standard_generators()
    table = closure([("T", t), ("D", d)])
    table.compute_products()
    table.compute_orders()
    table.compute_classes()
    match_reference_classes(table)
    return table


def reference_class_matrices() -> list[tuple[str, Mat]]:
    """The 32 literal class representatives in reference column order."""
    t, d = standard_generators()
    d2 = d.matmul(d)
    td = t.matmul(d)
    ident = Mat.identity(2)
    reps: list[tuple[str, Mat]] = []

    def zlabel(k: int, base: str) -> str:
        if k == 0:
            return base
        if k == 1:
            return f"z*{base}"
        return f"z^{k}*{base}"

    for k in range(8):
        reps.append((zlabel(k, "I"), ident.scale(CycNum.zeta(k))))
    for k in range(4):
        reps.append((zlabel(k, "D^2"), d2.scale(CycNum.zeta(k))))
    for k in range(8):
        reps.append((zlabel(k, "D"), d.scale(CycNum.zeta(k))))
    for k in range(4):
        reps.append((zlabel(k, "T"), t.scale(CycNum.zeta(k))))
    for k in range(8):
        reps.append((zlabel(k, "TD"), td.scale(CycNum.zeta(k))))
    return reps


def match_reference_classes(table: GroupTable) -> list[int]:
    """Locate the 32 reference representatives and order the classes by them.

    Asserts that every representative is an element of the group and that the
    32 representatives fall into 32 distinct conjugacy classes.
    """
    reps = reference_class_matrices()
    positions = []
    seen_blocks = set()
    block_order = []
    for label, mat in reps:
        try:
            idx = table.lookup(mat)
        except KeyError:
            raise ReferenceMismatchError(f"representative {label} not found in group")
        bid = table.class_of[idx]
        if bid in seen_blocks:
            raise ReferenceMismatchError(
                f"representative {label} is conjugate to an earlier representative")
        seen_blocks.add(bid)
        positions.append(idx)
        block_order.append(bid)
    if len(positions) != len(table.classes):
        raise ReferenceMismatchError(
            f"{len(positions)} representatives but {len(table.classes)} classes")
    table.class_reps = positions
    table.class_block_order = block_order
    table.class_labels = [label for label, _ in reps]
    return positions


def class_sizes(table: GroupTable) -> list[int]:
    """Class sizes in reference column order."""
    return [len(table.classes[b]) for b in table.class_block_order]


def class_orders(table: GroupTable) -> list[int]:
    """Element orders of the reference representatives, in column order."""
    return [table.orders[i] for i in table.class_reps]
