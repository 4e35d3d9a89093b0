"""Slow exact oracles that only the tests use.

Each one is the plain computation that a faster path in g9cov replaced;
the tests compare the two.
"""

from g9cov.covariants import CovariantSlice, FreenessError, RowReducer
from g9cov.cyclo import CycNum, ZERO, rational
from g9cov.linalg import nullspace_from_rref, rref
from g9cov.poly import VecPoly


def slice_dense(engine, rid, d):
    """Reference solver: the plain T and D constraint system, no pruning.

    Certifies that CovariantEngine.slice, which drops coordinates by the
    central and diagonal-D constraints and solves multimodularly, computes
    the same normal-form basis.
    """
    rep = engine.reps[rid]
    m = rep.dim
    coords = [(j, a) for j in range(m) for a in range(d, -1, -1)]
    col_index = {c: i for i, c in enumerate(coords)}
    ncols = len(coords)
    u = engine._subst_table(d)
    rows = []
    scaled_t = rep.img_t.scale(CycNum(0, 1, 0, -1) ** d)
    for j in range(m):
        for b in range(d, -1, -1):
            row = [ZERO] * ncols
            for a in range(d + 1):
                if u[a][b]:
                    row[col_index[(j, a)]] = rational(u[a][b])
            for l in range(m):
                s = scaled_t.at(j, l)
                if not s.is_zero():
                    idx = col_index[(l, b)]
                    row[idx] = row[idx] - s
            rows.append(row)
    img_d = rep.img_d
    i_pow = [CycNum.zeta(0), CycNum.zeta(2), CycNum.zeta(4), CycNum.zeta(6)]
    for j in range(m):
        for b in range(d, -1, -1):
            row = [ZERO] * ncols
            row[col_index[(j, b)]] = i_pow[(d - b) % 4]
            for l in range(m):
                s = img_d.at(j, l)
                if not s.is_zero():
                    idx = col_index[(l, b)]
                    row[idx] = row[idx] - s
            rows.append(row)
    reduced, pivots = rref(rows)
    basis = [VecPoly.from_coeffs(coords, v, m, d)
             for v in nullspace_from_rref(reduced, pivots, ncols)]
    return CovariantSlice(rid, d, tuple(coords), tuple(basis))


def covariance_check(vec, image, natural):
    """Exact check of F(s x) = rho(s) F(x) for one group element."""
    return vec.substitute(natural) == vec.mat_apply(image)


def verify_free_by_elimination(engine, rid, cutoff=None):
    """Free-module check by row reduction of every product theta^a phi^b g_j.

    For each degree d <= cutoff the products of degree d must be linearly
    independent and as many as the Molien coefficient.  Returns the same
    report as CovariantEngine.verify_free, which proves this from the
    generator determinant instead.
    """
    cutoff = engine.cutoff if cutoff is None else cutoff
    genset = engine.generators(rid)
    series = engine.molien_through(rid, cutoff).series
    rep = engine.reps[rid]
    checked = 0
    for d in range(cutoff + 1):
        prods = []
        for gdeg, g in genset.gens:
            rest = d - gdeg
            if rest < 0 or rest % 8:
                continue
            for b in range(rest // 24 + 1):
                rem = rest - 24 * b
                if rem % 8 == 0:
                    prods.append(g.mul_poly(engine.scalar_poly(rem // 8, b)))
        expected = series[d]
        if len(prods) != expected:
            raise FreenessError(
                f"rho_{rid} degree {d}: {len(prods)} products, "
                f"Molien coefficient {expected}")
        if prods:
            coords = [(j, a) for j in range(rep.dim) for a in range(d, -1, -1)]
            reducer = RowReducer(len(coords))
            for p in prods:
                if reducer.add(p.coeff_vector(coords)) is None:
                    raise FreenessError(
                        f"rho_{rid} degree {d}: dependent products")
        checked += 1
    return {"rep": rid, "degrees_checked": checked,
            "generator_degrees": genset.degrees}
