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

Every image entry lies in (1/4) Z[zeta_8], and the construction runs on
the format every later layer reads: (m, m, 4) int64 numerators over
DEN = 4, read-only.  rho_9 is the group's own generator coordinates, the
linear characters are coordinate scalars, and a tensor product (a twist
is one with a linear character) is one einsum through CYC_STRUCT.  Each
extraction basis is made of 0/1 columns with disjoint supports, so the
restricted matrix M is read off the support rows of rho(s) V.  Exactness
is checked where it could fail: every product is divided by DEN under a
divisibility and |coordinate| <= COORD_BOUND check (ImageError names the
representation), V M = rho(s) V is checked exactly for each extraction
(ExtractionError), and T^2 = I and D^4 = I for every representation.

rep_matrices builds the images of all elements BFS layer by layer as one
int64 array per representation, (|G|, m, m, 4) coordinates over DEN, one
BFS for all the given reps of one dimension (an all-rep read runs one per
dimension).  The homomorphism check, the class traces, the census Gram
matrix, the central scalar and the Molien sums read these arrays.  Each
integer path ends in an exact check: divisibility and |coordinate| <=
COORD_BOUND per layer (so an image product, m <= 4 times 16 coordinate
products, stays below 2^63), the Gram equality, and Molien integrality.
The class traces (character_table) are the characters in the same format,
coordinates over DEN: verify compares them with DEN times the reference
rows, and chartable renders them with cyclo.render_zeta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import group
from .cyclo import render_zeta
from .group import GroupTable, class_sizes
from .linalg import CYC_STRUCT, right_factor, zeta_power

# (rho_k(T), rho_k(D)) for k = 1..8 as powers of zeta_8:
# (1, 1), (1, -1), (1, i), (1, -i), (-1, 1), (-1, -1), (-1, i), (-1, -i)
LINEAR_IMAGES = [(t, d) for t in (0, 4) for d in (0, 4, 2, 6)]

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


@dataclass(frozen=True, eq=False)
class Representation:
    rid: int
    dim: int
    img_t: np.ndarray   # (dim, dim, 4) int64 numerators over DEN, read-only
    img_d: np.ndarray

    def image(self, name: str) -> np.ndarray:
        return {"T": self.img_t, "D": self.img_d}[name]


def _check_relations(rid: int, t: np.ndarray, d: np.ndarray) -> None:
    ident = scalar_image(len(t), [DEN, 0, 0, 0])
    if not np.array_equal(_times([rid], t, right_factor(t), "T^2"), ident):
        raise ExtractionError(f"rho_{rid}: T image is not an involution")
    d2 = _times([rid], d, right_factor(d), "D^2")
    if not np.array_equal(_times([rid], d2, right_factor(d2), "D^4"), ident):
        raise ExtractionError(f"rho_{rid}: D image has order not dividing 4")


def _tensor(rid: int, a: Representation, b: Representation) -> Representation:
    """rho_rid = a (x) b, its images over DEN in lexicographic basis order.

    A factor coordinate is a group coordinate, a unit, a product already
    divided under COORD_BOUND = 2^28, or two of those summed by an
    extraction: below 2^30, so a product coordinate, a sum of 4 products of
    two, stays below 2^62.
    """
    out = []
    for x, y in ((a.img_t, b.img_t), (a.img_d, b.img_d)):
        m, n = len(x), len(y)
        full = np.einsum("ijp,klq,pqr->ikjlr", x, y, CYC_STRUCT).reshape(m * n, m * n, 4)
        out.append(_over_den([rid], full, "a tensor product"))
    return Representation(rid, a.dim * b.dim, *out)


def extract_subrep(rid: int, parent: Representation,
                   supports: list[list[int]]) -> Representation:
    """rho_rid: the parent's images restricted to the span of the columns of V.

    Column i of V is 1 on the rows supports[i] and 0 elsewhere.  The
    supports are nonempty and disjoint, so V is injective and V M = rho(s) V
    forces row i of M to be row supports[i][0] of rho(s) V; that M is read
    off, and V M = rho(s) V is then checked exactly for s in {T, D}:
    ExtractionError if an image leaves the span.
    """
    v = np.zeros((parent.dim, len(supports)), dtype=np.int64)
    for i, rows in enumerate(supports):
        v[rows, i] = 1
    images = []
    for name in ("T", "D"):
        image = np.einsum("ijr,jk->ikr", parent.image(name), v)
        m = image[[rows[0] for rows in supports]]
        if not np.array_equal(np.einsum("ik,kjr->ijr", v, m), image):
            raise ExtractionError(f"rho_{rid}: the subspace is not invariant "
                                  f"under the {name} image")
        images.append(m)
    return Representation(rid, len(supports), *images)


def build_all(table: GroupTable) -> list[Representation]:
    """Construct rho_1..rho_32; index i lives at position i-1."""
    reps: list[Representation | None] = [None] * 33

    for k, (t, d) in enumerate(LINEAR_IMAGES, start=1):
        reps[k] = Representation(k, 1, scalar_image(1, zeta_power(t, DEN)),
                                 scalar_image(1, zeta_power(d, DEN)))

    # table.right[s][0] is the element s (element 0 is the identity)
    nat = [table.elements[table.right[s][0]].coords * (DEN // group.DEN) for s in ("T", "D")]
    reps[9] = Representation(9, 2, *nat)
    for pos, k in enumerate(FAITHFUL_TWISTS[1:], start=10):
        reps[pos] = _tensor(pos, reps[k], reps[9])

    # symmetric square inside rho_9 (x) rho_9: (a1a1, a1a2 + a2a1, a2a2)
    reps[21] = extract_subrep(21, _tensor(21, reps[9], reps[9]), [[0], [1, 2], [3]])
    for k in range(2, 9):
        reps[20 + k] = _tensor(20 + k, reps[k], reps[21])

    # symmetric cube inside rho_9 (x) rho_21
    reps[29] = extract_subrep(29, _tensor(29, reps[9], reps[21]), [[0], [1, 3], [2, 4], [5]])
    for k in (2, 3, 4):
        reps[28 + k] = _tensor(28 + k, reps[k], reps[29])

    # invariant plane inside rho_9 (x) rho_29: (e1 + e8, e3 + e6)
    reps[19] = extract_subrep(19, _tensor(19, reps[9], reps[29]), [[0, 7], [2, 5]])
    for pos, k in ((17, 2), (18, 3), (20, 4)):
        reps[pos] = _tensor(pos, reps[k], reps[19])

    out = [r for r in reps[1:] if r is not None]
    if len(out) != 32:
        raise ExtractionError("construction did not produce 32 representations")
    for r in out:
        _check_relations(r.rid, r.img_t, r.img_d)
        r.img_t.flags.writeable = r.img_d.flags.writeable = False
    return out


def scalar_image(m: int, w) -> np.ndarray:
    """w I_m for the coordinates w of one number."""
    return np.eye(m, dtype=np.int64)[:, :, None] * np.asarray(w, dtype=np.int64)


def _check_bound(rid: int, nums: np.ndarray) -> None:
    if nums.size and np.abs(nums).max() > COORD_BOUND:
        raise ImageError(f"rho_{rid}: an image coordinate exceeds {COORD_BOUND}")


def _over_den(rids: list[int], full: np.ndarray, what: str) -> np.ndarray:
    """full / DEN for products full of images of reps rids, stacked on axis 0.

    ImageError names the first rep whose product leaves (1/DEN) Z[zeta_8]
    or COORD_BOUND.
    """
    for bad, text in ((full % DEN, f"{what} is not in (1/{DEN}) Z[zeta_8]"),
                      (np.abs(full) > DEN * COORD_BOUND,
                       f"an image coordinate exceeds {COORD_BOUND} in {what}")):
        if bad.any():
            rid = rids[int(bad.reshape(len(rids), -1).any(axis=1).argmax())]
            raise ImageError(f"rho_{rid}: {text}")
    return full // DEN


def _times(rids: list[int], a: np.ndarray, factor: np.ndarray, what: str) -> np.ndarray:
    """a b over DEN for the images a (n, ..., m, m, 4) of reps rids, factor = right_factor(b)
    or one per rep stacked (n, 4m, 4m); ImageError names the first rep that fails.
    """
    full = a.reshape(len(rids), -1, factor.shape[-1]) @ factor
    return _over_den(rids, full, what).reshape(a.shape)


def rep_matrices(reps: list[Representation], table: GroupTable) -> list[np.ndarray]:
    """Images of all elements under representations of one dimension m.

    Returns one read-only (|G|, m, m, 4) int64 array over DEN per rep.  One
    BFS serves them all: per layer and generator s, the elements whose word
    ends in s get their parents' images times rho(s), for every rep in one
    batched matmul; ImageError names the representation that failed.
    """
    m, rids = reps[0].dim, [r.rid for r in reps]
    for r in reps:
        _check_bound(r.rid, np.stack([r.img_t, r.img_d]))
    factors = {name: np.stack([right_factor(r.image(name)) for r in reps])
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
        raise CensusError(f"<chi_{i+1}, chi_{j+1}> = {render_zeta(gram[i, j], scale)}, "
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
    for s in (table.right[name][0] for name in table.gens):
        lhs = (mats.reshape(-1, 4 * rep.dim) @ right_factor(mats[s])).reshape(mats.shape)
        bad = (lhs != DEN * mats[[row[s] for row in table.product]]).any(axis=(1, 2, 3))
        if bad.any():
            g = int(np.flatnonzero(bad)[0])
            raise CensusError(f"rho_{rep.rid}: homomorphism fails at pair ({g}, {s})")
    return len(table) ** 2
