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
the format every later layer reads: m x m matrices of Z[zeta_8]
coordinates over DEN = 4, tuples of Python ints (see linalg).  rho_9 is
the group's own generator coordinates, the linear characters are
coordinate scalars, and a tensor product (a twist is one with a linear
character) is the Kronecker product of the entries.  Each extraction
basis is made of 0/1 columns with disjoint supports, so the restricted
matrix M is read off the support rows of rho(s) V.  Exactness is checked
where it could fail: every product is divided by DEN under a divisibility
check (ImageError names the representation), V M = rho(s) V is checked
exactly for each extraction (ExtractionError), and T^2 = I and D^4 = I
for every representation.

image(rep, word) is the product of the generator images along a word, and
the characters need no other image.  zI is central, so rho(zI) is a
scalar zeta_8^r I (central_residue checks that exactly, on the image of
the word of zI in the table), and the reference representative z^k h of a
class is the group element (zI)^k h, so

    tr rho(z^k h) = zeta_8^(r k) tr rho(h)

for the five bases h in {I, D^2, D, T, TD} of group.CLASS_BASES:
class_traces reads the 32 class traces off five images, whose words are
read from the table.  They are the characters as coordinates over DEN:
verify compares them with DEN times the reference rows, chartable renders
them with cyclo.render_zeta, and Molien sums them.

verify certifies the homomorphism by G9's presentation (verify_homomorphism)
and the orthogonality of the characters by their Gram matrix on Python
ints (verify_census), so no production path builds the images of all 192
elements.  rep_matrices still builds them, as int64 numpy arrays: it is
a test oracle, and no module of g9cov calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

from . import group
from .cyclo import render_zeta
from .group import GroupTable, class_sizes
from .linalg import (_dot, cyc_mul, mat_mul, mat_quotient, right_factor, scalar_image,
                     zeta_power, zeta_shift)

# (rho_k(T), rho_k(D)) for k = 1..8 as powers of zeta_8:
# (1, 1), (1, -1), (1, i), (1, -i), (-1, 1), (-1, -1), (-1, i), (-1, -i)
LINEAR_IMAGES = [(t, d) for t in (0, 4) for d in (0, 4, 2, 6)]

# twist order for the faithful 2-dimensional family rho_9..rho_16
FAITHFUL_TWISTS = [1, 3, 2, 4, 5, 7, 6, 8]

DEN = 4
COORD_BOUND = 2 ** 28       # int64 images in rep_matrices

# Coxeter's presentation 4[6]2 of G9, <T, D | T^2 = D^4 = 1, (TD)^3 = (DT)^3>,
# as pairs of equal words; the presented group has order 192
PRESENTATION = (("TT", ""), ("DDDD", ""), ("TDTDTD", "DTDTDT"))


class ExtractionError(RuntimeError):
    """A chosen subspace is not invariant under a generator image."""


class ImageError(RuntimeError):
    """An image left (1/DEN) Z[zeta_8], or rep_matrices' int64 coordinate bound."""


class CensusError(RuntimeError):
    """The central element is not a scalar power of zeta_8, or the dimension
    census, the orthogonality of the characters or the presentation failed."""


@dataclass(frozen=True, eq=False)
class Representation:
    rid: int
    dim: int
    img_t: tuple    # dim x dim coordinates over DEN, a tuple of rows
    img_d: tuple


def _add(xs) -> tuple[int, int, int, int]:
    """The sum of the numbers with coordinates xs (at least one)."""
    return tuple(map(sum, zip(*xs)))


def _over_den(rid: int, full: tuple, what: str) -> tuple:
    """full / DEN for a product full of matrices of rho_rid.

    ImageError, naming the representation, if it leaves (1/DEN) Z[zeta_8].
    """
    quotient = mat_quotient(full, DEN)
    if quotient is None:
        raise ImageError(f"rho_{rid}: {what} is not in (1/{DEN}) Z[zeta_8]")
    return quotient


def _times(rid: int, a: tuple, b: tuple, what: str) -> tuple:
    """a b over DEN for matrices of rho_rid (see _over_den)."""
    return _over_den(rid, mat_mul(a, b), what)


def image(rep: Representation, word: str) -> tuple:
    """rho(s_1 ... s_k) over DEN for the word s_1 ... s_k over T and D.

    The product of the generator images along the word; ImageError names
    the representation and the length of a prefix whose image leaves
    (1/DEN) Z[zeta_8].
    """
    gens = {"T": rep.img_t, "D": rep.img_d}
    out = scalar_image(rep.dim, zeta_power(0, DEN))
    for n, s in enumerate(word, start=1):
        out = gens[s] if n == 1 else _times(rep.rid, out, gens[s],
                                            f"an image of word length {n}")
    return out


def _check_relations(rid: int, t: tuple, d: tuple) -> None:
    ident = scalar_image(len(t), zeta_power(0, DEN))
    if _times(rid, t, t, "T^2") != ident:
        raise ExtractionError(f"rho_{rid}: T image is not an involution")
    d2 = _times(rid, d, d, "D^2")
    if _times(rid, d2, d2, "D^4") != ident:
        raise ExtractionError(f"rho_{rid}: D image has order not dividing 4")


def _tensor(rid: int, a: Representation, b: Representation) -> Representation:
    """rho_rid = a (x) b, its images over DEN in lexicographic basis order."""
    out = []
    for x, y in ((a.img_t, b.img_t), (a.img_d, b.img_d)):
        full = tuple(tuple(cyc_mul(p, q) for p in xrow for q in yrow)
                     for xrow in x for yrow in y)
        out.append(_over_den(rid, full, "a tensor product"))
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
    zero = ((0, 0, 0, 0),) * len(supports)
    images = []
    for name, img in (("T", parent.img_t), ("D", parent.img_d)):
        moved = tuple(tuple(_add([row[r] for r in rows]) for rows in supports) for row in img)
        m = tuple(moved[rows[0]] for rows in supports)
        vm = [zero] * parent.dim
        for i, rows in enumerate(supports):
            for r in rows:
                vm[r] = m[i]
        if tuple(vm) != moved:
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
    scale = DEN // group.DEN
    nat = [tuple(tuple(tuple(scale * c for c in x) for x in row)
                 for row in table.elements[table.right[s][0]].coords) for s in ("T", "D")]
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
    return out


# -- the characters -------------------------------------------------------------------

@lru_cache(maxsize=64)
def central_residue(rep: Representation, table: GroupTable) -> int:
    """The r with rho(zI) = zeta_8^r I, read off the image of zI's word in the table.

    CensusError, naming the representation, unless that image is a scalar
    matrix whose scalar is a power of zeta_8.  Cached per (rep, table), both
    compared by identity.
    """
    word = table.elements[table.lookup(scalar_image(2, zeta_power(1, group.DEN)))].word
    central = image(rep, word)
    if central != scalar_image(rep.dim, central[0][0]):
        raise CensusError(f"rho_{rep.rid}: central element is not scalar")
    residue = next((k for k in range(8) if zeta_power(k, DEN) == central[0][0]), None)
    if residue is None:
        raise CensusError(f"rho_{rep.rid}: central scalar is not a power of zeta_8")
    return residue


@lru_cache(maxsize=64)
def class_traces(rep: Representation, table: GroupTable) -> tuple:
    """The 32 class traces of rep over DEN in reference column order: its character.

    Five images, one per base h of group.CLASS_BASES, and the central
    residue r: tr rho(z^k h) = zeta_8^(r k) tr rho(h) (module docstring).
    Cached per (rep, table), both compared by identity.
    """
    r = central_residue(rep, table)
    out, pos = [], 0
    for _, count in group.CLASS_BASES:
        h = image(rep, table.elements[table.class_reps[pos]].word)
        tr = _add([h[j][j] for j in range(rep.dim)])
        out += [zeta_shift(tr, r * k) for k in range(count)]
        pos += count
    return tuple(out)


def character_table(reps: list[Representation], table: GroupTable) -> tuple:
    """The class traces of each representation, (len(reps), 32, 4) coordinates over DEN."""
    return tuple(class_traces(r, table) for r in reps)


# -- rep_matrices: the images of all elements in int64 numpy (a test oracle) ----------

def _check_bound(rid: int, nums) -> None:
    if nums.size and abs(nums).max() > COORD_BOUND:
        raise ImageError(f"rho_{rid}: an image coordinate exceeds {COORD_BOUND}")


def _batch_times(rids: list[int], a, factor, what: str):
    """a b over DEN for the int64 images a (n, ..., m, m, 4) of reps rids.

    factor is right_factor(b), one per rep stacked (n, 4m, 4m).  ImageError
    names the first rep whose product leaves (1/DEN) Z[zeta_8] or COORD_BOUND.
    """
    full = a.reshape(len(rids), -1, factor.shape[-1]) @ factor
    for bad, text in ((full % DEN, f"{what} is not in (1/{DEN}) Z[zeta_8]"),
                      (abs(full) > DEN * COORD_BOUND,
                       f"an image coordinate exceeds {COORD_BOUND} in {what}")):
        if bad.any():
            rid = rids[int(bad.reshape(len(rids), -1).any(axis=1).argmax())]
            raise ImageError(f"rho_{rid}: {text}")
    return (full // DEN).reshape(a.shape)


def rep_matrices(reps: list[Representation], table: GroupTable) -> list:
    """Images of all elements under representations of one dimension m: a test oracle.

    No module of g9cov calls it: verify_homomorphism certifies the
    homomorphism by G9's presentation instead.  Returns one read-only
    (|G|, m, m, 4) int64 numpy array over DEN per rep.  One BFS serves them
    all: per layer and generator s, the elements whose word ends in s get
    their parents' images times rho(s), for every rep in one batched
    matmul; ImageError names the representation that failed.
    """
    import numpy as np

    m, rids = reps[0].dim, [r.rid for r in reps]
    for r in reps:
        _check_bound(r.rid, np.array([r.img_t, r.img_d]))
    factors = {name: np.array([right_factor(image(r, name)) for r in reps], dtype=np.int64)
               for name in table.gens}
    out = np.zeros((len(reps), len(table), m, m, 4), dtype=np.int64)
    out[:, table.identity] = scalar_image(m, zeta_power(0, DEN))
    steps: dict[tuple[int, str], list[int]] = {}
    for e in table.elements[1:]:          # element 0 is the identity
        steps.setdefault((len(e.word), e.last), []).append(e.index)
    for (length, name), kids in steps.items():
        out[:, kids] = _batch_times(rids, out[:, [table.elements[k].parent for k in kids]],
                                    factors[name], f"an image of word length {length}")
    out.flags.writeable = False
    return list(out)


# -- verify's whole-group checks --------------------------------------------------------

def character_gram(traces, table: GroupTable) -> dict:
    """|G| DEN^2 <chi_i, chi_j> for i <= j: (X diag|C| conj(X)^T)_ij on Python ints.

    Keyed by (i, j).  |C| is real, so the entry at (j, i) is the
    conjugate of the one at (i, j) for any traces X, and is not computed.
    """
    sizes = class_sizes(table)
    conj = [[(s * x[0], -s * x[3], -s * x[2], -s * x[1]) for s, x in zip(sizes, row)]
            for row in traces]
    return {(i, j): _dot(traces[i], conj[j])
            for i in range(len(traces)) for j in range(i, len(traces))}


def verify_census(reps: list[Representation], table: GroupTable, traces) -> dict:
    """Dimension census and full orthonormality: the Gram matrix is |G| DEN^2 I."""
    dims = sorted(r.dim for r in reps)
    expected = sorted([1] * 8 + [2] * 12 + [3] * 8 + [4] * 4)
    if dims != expected:
        raise CensusError(f"dimension multiset {dims} is wrong")
    total = sum(r.dim ** 2 for r in reps)
    if total != len(table):
        raise CensusError(f"sum of squared dimensions is {total}, not {len(table)}")
    scale = len(table) * DEN * DEN
    for (i, j), x in character_gram(traces, table).items():
        if x != (scale * (i == j), 0, 0, 0):
            raise CensusError(f"<chi_{i+1}, chi_{j+1}> = {render_zeta(x, scale)}, "
                              f"expected {int(i == j)}")
    return {"dims": dims, "sum_squares": total, "pairs_checked": len(reps) ** 2}


def verify_homomorphism(rep: Representation, table: GroupTable) -> int:
    """Certify rho(g) rho(h) = rho(gh) for every ordered pair of elements.

    G9 has the presentation <T, D | T^2 = D^4 = 1, (TD)^3 = (DT)^3> of
    order 192 (Coxeter, Regular Complex Polytopes, 1974; Broue, Malle and
    Rouquier, J. reine angew. Math. 500, 1998).  The table's T and D
    satisfy its relations and the table has 192 elements, so the table is
    that group; generator images that satisfy the relations then extend
    to a homomorphism, whose image of g is the product along g's word.
    Each relation is compared exactly in the table and on rho's images
    (CensusError names the relation, ImageError the representation whose
    image leaves (1/DEN) Z[zeta_8]).  Returns the number of ordered pairs
    certified.
    """
    if len(table) != 192:
        raise CensusError(f"the group table has {len(table)} elements, not 192")
    for lhs, rhs in PRESENTATION:
        ends = [reduce(lambda g, s: table.right[s][g], word, table.identity)
                for word in (lhs, rhs)]
        if ends[0] != ends[1]:
            raise CensusError(f"the group table breaks the relation {lhs} = {rhs or '1'}")
        if image(rep, lhs) != image(rep, rhs):
            raise CensusError(f"rho_{rep.rid}: the relation {lhs} = {rhs or '1'} fails")
    return len(table) ** 2
