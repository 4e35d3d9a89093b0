"""The 32 irreducible representations of G9 and their character table.

Construction plan (generator images only; everything else comes from word
products over the group table):

  * rho_1..rho_8      linear characters, (T, D) -> (t, d) with t^2 = d^4 = 1
  * rho_9             the defining 2x2 representation
  * rho_10..rho_16    scalar twists of rho_9 listed by (epsilon, eta) =
                      (rho_k(T), rho_k(D)), i.e. twists by rho_3, rho_2,
                      rho_4, rho_5, rho_7, rho_6, rho_8 in that order
  * rho_21            cut out of rho_9 (x) rho_9 on the symmetric square
                      basis (a1a1, a1a2 + a2a1, a2a2)
  * rho_22..rho_28    twists rho_k (x) rho_21, k = 2..8
  * rho_29            cut out of rho_9 (x) rho_21 on the symmetric cube
                      basis; rho_30..rho_32 its twists by rho_2, rho_3, rho_4
  * rho_19            cut out of rho_9 (x) rho_29 on the 2-dimensional
                      invariant plane (e1 + e8, e3 + e6); rho_17, rho_18,
                      rho_20 its twists by rho_2, rho_3, rho_4

Indices 17..20 place the twists so that the character rows land in the
reference-table order (the plane extraction itself sits at 19); indices
29..32 put the extraction first.  reference.py records the one known
internal inconsistency of the reference character table against this
numbering (rows 29..31).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cyclo import CycNum, I_UNIT, ONE, ZERO
from .group import GroupTable
from .linalg import CYC_STRUCT, Mat, int_encoding, kron, solve_exact

LINEAR_IMAGES = [
    (1, 1), (1, -1), (1, I_UNIT), (1, -I_UNIT),
    (-1, 1), (-1, -1), (-1, I_UNIT), (-1, -I_UNIT),
]

# twist order for the faithful 2-dimensional family rho_9..rho_16
FAITHFUL_TWISTS = [1, 3, 2, 4, 5, 7, 6, 8]

# verify_homomorphism takes its int64 path only below this magnitude bound
INT64_BOUND = 2 ** 62


class ExtractionError(RuntimeError):
    """A chosen subspace is not invariant under a generator image."""


class CensusError(RuntimeError):
    """Dimension census or orthogonality of the characters failed."""


@dataclass(frozen=True)
class Representation:
    rid: int
    dim: int
    img_t: Mat
    img_d: Mat

    def image(self, name: str) -> Mat:
        if name == "T":
            return self.img_t
        if name == "D":
            return self.img_d
        raise KeyError(name)


def _check_relations(rid: int, img_t: Mat, img_d: Mat) -> None:
    n = img_t.rows
    if img_t.matmul(img_t) != Mat.identity(n):
        raise ExtractionError(f"rho_{rid}: T image is not an involution")
    if img_d ** 4 != Mat.identity(n):
        raise ExtractionError(f"rho_{rid}: D image has order not dividing 4")


def extract_subrep(parent_t: Mat, parent_d: Mat, span: list[Mat]) -> tuple[Mat, Mat]:
    """Restrict generator images to the span of the given column vectors.

    Solves parent(s) v_j = sum_i m_ij v_i exactly for s in {T, D} and
    returns the restricted matrices; raises ExtractionError if any image
    leaves the span.
    """
    v = Mat.from_rows([[vec.at(i, 0) for vec in span] for i in range(span[0].rows)])
    out = []
    for parent in (parent_t, parent_d):
        image = parent.matmul(v)
        try:
            out.append(solve_exact(v, image))
        except ValueError as exc:
            raise ExtractionError(f"subspace is not invariant: {exc}") from exc
    return out[0], out[1]


def _twist(rid: int, k: int, base: Representation) -> Representation:
    t, d = LINEAR_IMAGES[k - 1]
    return Representation(rid, base.dim, base.img_t.scale(t), base.img_d.scale(d))


def _e(n: int, *positions: int) -> Mat:
    """Sum of standard basis column vectors (1-based positions) in C^n."""
    return Mat.column([ONE if (i + 1) in positions else ZERO for i in range(n)])


def build_all(table: GroupTable) -> list[Representation]:
    """Construct rho_1..rho_32; index i lives at position i-1."""
    reps: list[Representation | None] = [None] * 33

    for k in range(1, 9):
        t, d = LINEAR_IMAGES[k - 1]
        reps[k] = Representation(k, 1, Mat.from_rows([[t]]), Mat.from_rows([[d]]))

    nat_t, nat_d = table.gens["T"], table.gens["D"]
    reps[9] = Representation(9, 2, nat_t, nat_d)
    for pos, k in enumerate(FAITHFUL_TWISTS[1:], start=10):
        reps[pos] = _twist(pos, k, reps[9])

    # symmetric square inside rho_9 (x) rho_9
    t99, d99 = kron(nat_t, nat_t), kron(nat_d, nat_d)
    sym2 = [_e(4, 1), _e(4, 2, 3), _e(4, 4)]
    t21, d21 = extract_subrep(t99, d99, sym2)
    reps[21] = Representation(21, 3, t21, d21)
    for k in range(2, 9):
        reps[20 + k] = _twist(20 + k, k, reps[21])

    # symmetric cube inside rho_9 (x) rho_21
    t921, d921 = kron(nat_t, t21), kron(nat_d, d21)
    sym3 = [_e(6, 1), _e(6, 2, 4), _e(6, 3, 5), _e(6, 6)]
    t29, d29 = extract_subrep(t921, d921, sym3)
    reps[29] = Representation(29, 4, t29, d29)
    for k in (2, 3, 4):
        reps[28 + k] = _twist(28 + k, k, reps[29])

    # invariant plane inside rho_9 (x) rho_29
    t929, d929 = kron(nat_t, t29), kron(nat_d, d29)
    plane = [_e(8, 1, 8), _e(8, 3, 6)]
    t19, d19 = extract_subrep(t929, d929, plane)
    reps[19] = Representation(19, 2, t19, d19)
    reps[17] = _twist(17, 2, reps[19])
    reps[18] = _twist(18, 3, reps[19])
    reps[20] = _twist(20, 4, reps[19])

    out = [r for r in reps[1:] if r is not None]
    if len(out) != 32:
        raise ExtractionError("construction did not produce 32 representations")
    for r in out:
        _check_relations(r.rid, r.img_t, r.img_d)
    return out


def rep_matrices(rep: Representation, table: GroupTable) -> list[Mat]:
    """Images of all group elements, following the BFS discovery chain."""
    mats: list[Mat] = [None] * len(table)  # type: ignore[list-item]
    for e in table.elements:
        if e.parent < 0:
            mats[e.index] = Mat.identity(rep.dim)
        else:
            mats[e.index] = mats[e.parent].matmul(rep.image(e.last))
    return mats


def inner_product(row_a: list[CycNum], row_b: list[CycNum],
                  table: GroupTable) -> Fraction:
    """(1/|G|) sum over classes of |C| a(C) conj(b(C)); rational for characters."""
    acc = ZERO
    for pos, bid in enumerate(table.class_block_order):
        size = len(table.classes[bid])
        acc = acc + row_a[pos] * row_b[pos].conj() * size
    if not acc.is_rational():
        raise RuntimeError(f"non-rational character pairing: {acc}")
    return acc.as_fraction() / len(table)


def class_traces(rep: Representation, table: GroupTable) -> list[CycNum]:
    """Traces at the 32 reference classes, in column order.

    A trace is constant on a class, so each class is read at its first BFS
    element (a shortest word): only those and their ancestors get an image.
    """
    images = {table.identity: Mat.identity(rep.dim)}

    def image(i: int) -> Mat:
        if i not in images:
            e = table.elements[i]
            images[i] = image(e.parent).matmul(rep.image(e.last))
        return images[i]

    return [image(table.classes[bid][0]).trace() for bid in table.class_block_order]


def character_table(reps: list[Representation], table: GroupTable) -> list[list[CycNum]]:
    """One row of class traces per representation."""
    return [class_traces(r, table) for r in reps]


def verify_census(reps: list[Representation], table: GroupTable,
                  rows: list[list[CycNum]]) -> dict:
    """Dimension census and full orthonormality of the character rows."""
    dims = sorted(r.dim for r in reps)
    expected = sorted([1] * 8 + [2] * 12 + [3] * 8 + [4] * 4)
    if dims != expected:
        raise CensusError(f"dimension multiset {dims} is wrong")
    total = sum(r.dim ** 2 for r in reps)
    if total != len(table):
        raise CensusError(f"sum of squared dimensions is {total}, not {len(table)}")
    for i in range(len(reps)):
        for j in range(len(reps)):
            val = inner_product(rows[i], rows[j], table)
            want = Fraction(1 if i == j else 0)
            if val != want:
                raise CensusError(
                    f"<chi_{i+1}, chi_{j+1}> = {val}, expected {want}")
    return {"dims": dims, "sum_squares": total, "pairs_checked": len(reps) ** 2}


# -- homomorphism certification on the Cayley edges -------------------------------

def verify_homomorphism(rep: Representation, table: GroupTable,
                        mats: list[Mat] | None = None) -> int:
    """Check rho(g) rho(h) = rho(gh) for every ordered pair of elements.

    G9 = <T, D>: if rho(e) = I and rho(g) rho(s) = rho(gs) for all g and s in
    {T, D}, then h = h's gives rho(g) rho(h) = rho(gh') rho(s) = rho(gh).
    So only the 2 * |G| Cayley edges are checked, in int64 with a proven
    magnitude bound, or with exact CycNum products if the bound is too weak.
    Returns the number of ordered pairs certified.
    """
    if mats is None:
        mats = rep_matrices(rep, table)
    n = len(table)
    m = rep.dim
    if mats[table.identity] != Mat.identity(m):
        raise CensusError(f"rho_{rep.rid}: the identity is not sent to I")
    nums, dens, max_abs = int_encoding([mat.entries for mat in mats])
    nums = nums.reshape(n, m, m, 4)
    # worst entry of a product: m cyc-multiplies of 4 cross terms each,
    # then cross-multiplied by a denominator product
    fast = 4 * m * max_abs * max_abs * max_abs < INT64_BOUND
    if fast:
        nums, dens = nums.astype(np.int64), dens.astype(np.int64)
    for s in (table.lookup(g) for g in table.gens.values()):
        target = np.array([row[s] for row in table.product])
        if fast:
            lhs = np.einsum("gikp,kjq,pqr->gijr", nums, nums[s], CYC_STRUCT,
                            optimize=True)
            lhs = lhs * dens[target][:, None, None, None]
            rhs = nums[target] * (dens * dens[s])[:, None, None, None]
            bad = (lhs != rhs).any(axis=(1, 2, 3))
        else:
            bad = [mats[g].matmul(mats[s]) != mats[t] for g, t in enumerate(target)]
        if any(bad):
            g = int(np.flatnonzero(bad)[0])
            raise CensusError(f"rho_{rep.rid}: homomorphism fails at pair ({g}, {s})")
    return n * n
