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

Every image entry lies in (1/4) Z[zeta_8]: rep_matrices builds the images
of all elements BFS layer by layer as one int64 array per representation,
(|G|, m, m, 4) coordinates over DEN = 4, one BFS for all the given reps of
one dimension (an all-rep read runs one per dimension).  The homomorphism
check, the class traces, the census Gram matrix, the central scalar and the
Molien sums read these arrays.  Each integer path ends in an exact check:
divisibility and |coordinate| <= COORD_BOUND per layer (so an image
product, m <= 4 times 16 coordinate products, stays below 2^63), the Gram
equality, and Molien integrality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cyclo import CycNum, I_UNIT, ONE, ZERO
from .group import GroupTable, class_sizes
from .linalg import Mat, int_encoding, kron, right_factor, solve_exact

LINEAR_IMAGES = [
    (1, 1), (1, -1), (1, I_UNIT), (1, -I_UNIT),
    (-1, 1), (-1, -1), (-1, I_UNIT), (-1, -I_UNIT),
]

# twist order for the faithful 2-dimensional family rho_9..rho_16
FAITHFUL_TWISTS = [1, 3, 2, 4, 5, 7, 6, 8]

DEN = 4
COORD_BOUND = 2 ** 28
TRACE_BOUND = 2 ** 26


class ExtractionError(RuntimeError):
    """A chosen subspace is not invariant under a generator image."""


class ImageError(RuntimeError):
    """An image left (1/DEN) Z[zeta_8] or the int64 coordinate bound."""


class CensusError(RuntimeError):
    """Dimension census or orthogonality of the characters failed."""


@dataclass(frozen=True)
class Representation:
    rid: int
    dim: int
    img_t: Mat
    img_d: Mat

    def image(self, name: str) -> Mat:
        return {"T": self.img_t, "D": self.img_d}[name]


def _check_relations(rid: int, img_t: Mat, img_d: Mat) -> None:
    t, d = encode(rid, img_t), encode(rid, img_d)
    ident = scalar_image(len(t), [DEN, 0, 0, 0])
    if not np.array_equal(_times([rid], t, right_factor(t), "T^2"), ident):
        raise ExtractionError(f"rho_{rid}: T image is not an involution")
    d2 = _times([rid], d, right_factor(d), "D^2")
    if not np.array_equal(_times([rid], d2, right_factor(d2), "D^4"), ident):
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


def encode(rid: int, mat: Mat) -> np.ndarray:
    """A matrix over (1/DEN) Z[zeta_8] as (rows, cols, 4) int64 numerators over DEN."""
    nums, (den,), _ = int_encoding([mat.entries])
    if DEN % den:
        raise ImageError(f"rho_{rid}: a generator entry is not in (1/{DEN}) Z[zeta_8]")
    out = nums.reshape(mat.rows, mat.cols, 4) * (DEN // den)
    _check_bound(rid, out)
    return out.astype(np.int64)


def decode(nums, den: int = DEN) -> CycNum:
    """The number with integer coordinates nums over den."""
    return CycNum._make(tuple(int(n) for n in nums), den)


def scalar_image(m: int, w) -> np.ndarray:
    """w I_m for the coordinates w of one number."""
    return np.eye(m, dtype=np.int64)[:, :, None] * np.asarray(w, dtype=np.int64)


def _check_bound(rid: int, nums: np.ndarray) -> None:
    if nums.size and np.abs(nums).max() > COORD_BOUND:
        raise ImageError(f"rho_{rid}: an image coordinate exceeds {COORD_BOUND}")


def _times(rids: list[int], a: np.ndarray, factor: np.ndarray, what: str) -> np.ndarray:
    """a b over DEN for the images a (n, ..., m, m, 4) of reps rids, factor = right_factor(b)
    or one per rep stacked (n, 4m, 4m); ImageError names the first rep that fails.
    """
    full = a.reshape(len(rids), -1, factor.shape[-1]) @ factor
    for bad, text in ((full % DEN, f"{what} is not in (1/{DEN}) Z[zeta_8]"),
                      (np.abs(full) > DEN * COORD_BOUND,
                       f"an image coordinate exceeds {COORD_BOUND} in {what}")):
        if bad.any():
            rid = rids[int(bad.reshape(len(rids), -1).any(axis=1).argmax())]
            raise ImageError(f"rho_{rid}: {text}")
    return (full // DEN).reshape(a.shape)


def rep_matrices(reps: list[Representation], table: GroupTable) -> list[np.ndarray]:
    """Images of all elements under representations of one dimension m.

    Returns one read-only (|G|, m, m, 4) int64 array over DEN per rep.  One
    BFS serves them all: per layer and generator s, the elements whose word
    ends in s get their parents' images times rho(s), for every rep in one
    batched matmul; ImageError names the representation that failed.
    """
    m, rids = reps[0].dim, [r.rid for r in reps]
    factors = {name: np.stack([right_factor(encode(r.rid, r.image(name))) for r in reps])
               for name in table.gens}
    out = np.zeros((len(reps), len(table), m, m, 4), dtype=np.int64)
    out[:, table.identity] = scalar_image(m, [DEN, 0, 0, 0])
    steps: dict[tuple[int, str], list[int]] = {}
    for e in table.elements[1:]:          # element 0 is the identity
        steps.setdefault((len(e.word), e.last), []).append(e.index)
    for (length, name), kids in steps.items():
        out[:, kids] = _times(rids, out[:, [table.elements[k].parent for k in kids]],
                              factors[name], f"an image of word length {length}")
    out.flags.writeable = False
    return list(out)


def class_traces(images: np.ndarray, table: GroupTable) -> np.ndarray:
    """(32, 4) trace numerators over DEN at the reference classes, in column order."""
    return np.einsum("cjjr->cr", images[table.class_reps])


def character_table(images: list[np.ndarray], table: GroupTable) -> np.ndarray:
    """Class traces of each representation's images, (len(images), 32, 4)."""
    return np.stack([class_traces(x, table) for x in images])


def character_gram(traces: np.ndarray, table: GroupTable) -> np.ndarray:
    """|G| DEN^2 <chi_i, chi_j> for trace numerators X: X diag|C| conj(X)^T in int64."""
    if np.abs(traces).max() > TRACE_BOUND:
        raise CensusError(f"a trace coordinate exceeds {TRACE_BOUND}")
    n = len(traces)
    conj = traces[..., [0, 3, 2, 1]] * np.array([1, -1, -1, -1])
    weighted = conj.transpose(1, 0, 2) * np.array(class_sizes(table))[:, None, None]
    return (traces.reshape(n, -1) @ right_factor(weighted)).reshape(n, n, 4)


def verify_census(reps: list[Representation], table: GroupTable,
                  traces: np.ndarray) -> dict:
    """Dimension census and full orthonormality: the Gram matrix is |G| DEN^2 I."""
    dims = sorted(r.dim for r in reps)
    expected = sorted([1] * 8 + [2] * 12 + [3] * 8 + [4] * 4)
    if dims != expected:
        raise CensusError(f"dimension multiset {dims} is wrong")
    total = sum(r.dim ** 2 for r in reps)
    if total != len(table):
        raise CensusError(f"sum of squared dimensions is {total}, not {len(table)}")
    gram = character_gram(traces, table)
    scale = len(table) * DEN * DEN
    bad = np.argwhere((gram != scalar_image(len(reps), [scale, 0, 0, 0])).any(axis=2))
    if len(bad):
        i, j = bad[0]
        raise CensusError(f"<chi_{i+1}, chi_{j+1}> = {decode(gram[i, j], scale)}, "
                          f"expected {int(i == j)}")
    return {"dims": dims, "sum_squares": total, "pairs_checked": len(reps) ** 2}


# -- homomorphism certification on the Cayley edges -------------------------------

def verify_homomorphism(rep: Representation, table: GroupTable, mats: np.ndarray) -> int:
    """Check rho(g) rho(h) = rho(gh) for every ordered pair of elements.

    G9 = <T, D>: if rho(e) = I and rho(g) rho(s) = rho(gs) for all g and s in
    {T, D}, then h = h's gives rho(g) rho(h) = rho(gh') rho(s) = rho(gh).
    So only the 2 * |G| Cayley edges are checked, one int64 product through
    CYC_STRUCT per generator on the image numerators, exact within COORD_BOUND.
    Returns the number of ordered pairs certified.
    """
    if not np.array_equal(mats[table.identity], scalar_image(rep.dim, [DEN, 0, 0, 0])):
        raise CensusError(f"rho_{rep.rid}: the identity is not sent to I")
    _check_bound(rep.rid, mats)
    for s in (table.lookup(g) for g in table.gens.values()):
        lhs = (mats.reshape(-1, 4 * rep.dim) @ right_factor(mats[s])).reshape(mats.shape)
        bad = (lhs != DEN * mats[[row[s] for row in table.product]]).any(axis=(1, 2, 3))
        if bad.any():
            g = int(np.flatnonzero(bad)[0])
            raise CensusError(f"rho_{rep.rid}: homomorphism fails at pair ({g}, {s})")
    return len(table) ** 2
