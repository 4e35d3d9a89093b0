"""Enumeration of the reflection group G9 from its two generators.

The group is built by breadth-first closure under right multiplication by
the generators, so every element carries a shortest generator word and the
element order (BFS layer, then discovery order) is deterministic.  On top
of the closure we compute the Cayley table (read off the BFS tree, so only
the generators are multiplied as matrices), inverses, element orders and
the conjugacy classes, and align the classes with the reference column
order: the 32 classes are represented by the literal matrices

    z^k I (k=0..7),  z^k D^2 (k=0..3),  z^k D (k=0..7),
    z^k T (k=0..3),  z^k TD (k=0..7),

with z = zeta_8.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclo import CycNum, HALF_SQRT2, I_UNIT
from .linalg import Mat

CLOSURE_LIMIT = 10_000


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


@dataclass(frozen=True)
class GroupElement:
    index: int
    mat: Mat
    word: str        # left-to-right product of generators, "" for the identity
    parent: int      # index of the element this was discovered from (-1 for identity)
    last: str        # generator appended to the parent's word ("" for identity)


class GroupTable:
    """The closed group with Cayley table, inverses, orders and classes."""

    def __init__(self, elements: list[GroupElement], index: dict, gens: dict[str, Mat],
                 right: dict[str, list[int]]):
        self.elements = elements
        self.index = index
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
        return self.index[mat.key()]

    # -- derived structure -------------------------------------------------------

    def compute_products(self) -> None:
        """Cayley table read off the BFS tree, and the inverse table.

        Element j is parent(j) * last(j) with parent(j) < j, so by
        associativity i * j = (i * parent(j)) * last(j): the right action of
        each generator, which the closure recorded, is the only matrix product.
        """
        n = len(self.elements)
        tree = [(e.index, self.right[e.last], e.parent) for e in self.elements[1:]]
        self.product = []
        for i in range(n):
            row = [i] * n               # element 0 is the identity
            for j, perm, parent in tree:
                row[j] = perm[row[parent]]
            self.product.append(row)
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
    Raises NotFinitelyClosedError past ``limit`` elements.
    """
    names = [name for name, _ in gens]
    gmap = {name: m for name, m in gens}
    size = gens[0][1].rows
    ident = Mat.identity(size)
    elements = [GroupElement(0, ident, "", -1, "")]
    index = {ident.key(): 0}
    right: dict[str, list[int]] = {name: [] for name in names}
    frontier = [0]
    while frontier:
        next_frontier = []
        for ei in frontier:
            base = elements[ei]
            for name in names:
                m = base.mat.matmul(gmap[name])
                k = m.key()
                if k not in index:
                    idx = len(elements)
                    if idx >= limit:
                        raise NotFinitelyClosedError(f"closure exceeded {limit} elements")
                    elements.append(GroupElement(idx, m, base.word + name, ei, name))
                    index[k] = idx
                    next_frontier.append(idx)
                right[name].append(index[k])
        frontier = next_frontier
    return GroupTable(elements, index, gmap, right)


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
