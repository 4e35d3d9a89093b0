"""Enumeration of the reflection group G9 from its two generators.

A group element is an n x n matrix of Z[zeta_8] coordinates over DEN = 2,
as G9 lies in (1/2) Z[zeta_8]: a tuple of rows, each entry the tuple of
four Python ints of linalg.  The generators, the closure input and lookup
all use that format, and the matrix itself is the lookup key.  The group
is built by breadth-first closure under right multiplication by the
generators, so every element carries a shortest generator word and the
element order (BFS layer, then discovery order) is deterministic.  On top of the
closure we compute the Cayley table (read off the BFS tree, so only the
generators are multiplied as matrices), inverses, element orders and the
conjugacy classes, and align the classes with the reference column
order: the 32 classes are represented by the elements

    z^k I (k=0..7),  z^k D^2 (k=0..3),  z^k D (k=0..7),
    z^k T (k=0..3),  z^k TD (k=0..7),

with z = zeta_8, built from the generator coordinates (CLASS_BASES).
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import mat_mul, mat_quotient, scalar_image, zeta_power, zeta_shift

CLOSURE_LIMIT = 10_000
DEN = 2
# no coordinate of G9 exceeds DEN; the bound stops a generator of infinite
# order with growing entries at its first large power, not at CLOSURE_LIMIT
COORD_BOUND = 2 ** 24

# the reference classes, in column order: z^k base for k < count
CLASS_BASES = (("I", 8), ("D^2", 4), ("D", 8), ("T", 4), ("TD", 8))


class NotFinitelyClosedError(RuntimeError):
    """Closure exceeded the element budget; generators generate an infinite group."""


class ReferenceMismatchError(RuntimeError):
    """The enumerated group does not match the reference class structure."""


def standard_generators() -> tuple[tuple, tuple]:
    """The defining generators T = (1/sqrt2)[[1,1],[1,-1]] and D = diag(1, i).

    (2, 2, 4) coordinates over DEN: 1/sqrt2 = (z - z^3)/2.
    """
    h, minus_h, zero = (0, 1, 0, -1), (0, -1, 0, 1), (0, 0, 0, 0)
    t = ((h, h), (h, minus_h))
    d = ((zeta_power(0, DEN), zero), (zero, zeta_power(2, DEN)))
    return t, d


def multiply(a: tuple, b: tuple) -> tuple:
    """The product a b of n x n coordinate matrices over DEN.

    ValueError if it leaves (1/DEN) Z[zeta_8].
    """
    prod = mat_quotient(mat_mul(a, b), DEN)
    if prod is None:
        raise ValueError(f"a product leaves (1/{DEN}) Z[zeta_8]")
    return prod


@dataclass(frozen=True, eq=False)
class GroupElement:
    index: int
    word: str        # left-to-right product of generators, "" for the identity
    parent: int      # index of the element this was discovered from (-1 for identity)
    last: str        # generator appended to the parent's word ("" for identity)
    coords: tuple        # n x n coordinates over DEN, a tuple of rows


class GroupTable:
    """The closed group with Cayley table, inverses, orders and classes."""

    def __init__(self, elements: list[GroupElement], index: dict,
                 gens: dict[str, tuple], right: dict[str, list[int]]):
        self.elements = elements
        self.index = index      # coordinates over DEN -> index
        self.gens = gens        # generator coordinates over DEN
        self.right = right      # right[name][i] = index of element i * gens[name]
        self.identity: int | None = None
        self.product: list[list[int]] | None = None
        self.inverse: list[int] | None = None
        self.orders: list[int] | None = None
        self.classes: list[list[int]] | None = None   # blocks of element indices
        self.class_of: list[int] | None = None        # element index -> block id
        self.class_reps: list[int] | None = None      # reference-ordered representatives
        self.class_block_order: list[int] | None = None  # reference position -> block id
        self.class_labels: list[str] | None = None    # reference-ordered labels

    def __len__(self):
        return len(self.elements)

    def lookup(self, coords: tuple) -> int:
        """Index of the element with these coordinates over DEN; KeyError if absent."""
        return self.index[coords]

    # -- derived structure -------------------------------------------------------

    def compute_products(self) -> None:
        """Cayley table read off the BFS tree, and the inverse table.

        Element j is parent(j) * last(j) with parent(j) < j, so by
        associativity i * j = (i * parent(j)) * last(j): the right action of
        each generator, which the closure recorded, is the only matrix product.
        """
        cols = [list(range(len(self.elements)))]    # cols[j][i] = i * j; 0 is the identity
        for e in self.elements[1:]:
            cols.append(list(map(self.right[e.last].__getitem__, cols[e.parent])))
        self.product = [list(row) for row in zip(*cols)]
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


def _within_bound(coords: tuple) -> bool:
    flat = [c for row in coords for x in row for c in x]
    return all(type(c) is int for c in flat) and max(map(abs, flat)) <= COORD_BOUND


def closure(gens: list[tuple[str, tuple]], limit: int = CLOSURE_LIMIT) -> GroupTable:
    """Breadth-first closure of invertible matrices given as coordinates over DEN.

    Each element records a minimal-length word over the generator names.
    Each element of a BFS layer is multiplied by one generator at a time;
    ValueError names a generator that is not integer coordinates within
    COORD_BOUND, or a word that leaves (1/DEN) Z[zeta_8] or COORD_BOUND.
    Raises NotFinitelyClosedError past ``limit`` elements.
    """
    for name, g in gens:
        if not _within_bound(g):
            raise ValueError(f"generator {name} is not integer coordinates within COORD_BOUND")
    ident = scalar_image(len(gens[0][1]), zeta_power(0, DEN))
    elements = [GroupElement(0, "", -1, "", ident)]
    index = {ident: 0}
    right: dict[str, list[int]] = {name: [] for name, _ in gens}
    frontier = [0]
    while frontier:
        length = len(elements[frontier[0]].word) + 1
        next_frontier = []
        for ei in frontier:
            for name, g in gens:
                k = mat_quotient(mat_mul(elements[ei].coords, g), DEN)
                if k not in index:
                    if k is None or not _within_bound(k):
                        raise ValueError(f"a word of length {length} ending in {name} leaves "
                                         f"(1/{DEN}) Z[zeta_8] or COORD_BOUND")
                    idx = len(elements)
                    if idx >= limit:
                        raise NotFinitelyClosedError(f"closure exceeded {limit} elements")
                    elements.append(GroupElement(idx, elements[ei].word + name, ei, name, k))
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


def reference_class_matrices() -> list[tuple[str, tuple]]:
    """The 32 literal class representatives in reference column order.

    Coordinates over DEN, built from the generators by integer products and
    z^k shifts; no group table is read.
    """
    t, d = standard_generators()
    bases = {"I": scalar_image(2, zeta_power(0, DEN)),
             "D^2": multiply(d, d), "D": d, "T": t, "TD": multiply(t, d)}
    reps: list[tuple[str, tuple]] = []
    for base, count in CLASS_BASES:
        for k in range(count):
            label = base if k == 0 else f"z*{base}" if k == 1 else f"z^{k}*{base}"
            reps.append((label, tuple(tuple(zeta_shift(x, k) for x in row)
                                      for row in bases[base])))
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
    for label, coords in reps:
        try:
            idx = table.lookup(coords)
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


def class_inverses(table: GroupTable) -> list[int]:
    """The column of the class of each reference representative's inverse."""
    column = {b: pos for pos, b in enumerate(table.class_block_order)}
    return [column[table.class_of[table.inverse[i]]] for i in table.class_reps]
