"""Equivariant Molien series for the covariant modules.

The Hilbert series of the module of rho-covariants is the group average of
tr rho(s^-1) / det(I - t s), s in the natural 2x2 action (Molien's formula;
Stanley, Bull. AMS 1 (1979)).  An element of G9 has order dividing 24, and
one with a repeated eigenvalue is scalar of order dividing 8, so
det(I - t s) divides (1 - t^8)(1 - t^24), the denominator of the invariant
ring C[theta, phi], and Q_s = (1 - t^8)(1 - t^24) / det(I - t s) is a
polynomial of degree 30.  The series is exactly P_rho / ((1 - t^8)(1 - t^24))
in every degree, P_rho the group average of tr rho(s^-1) Q_s.

The centre cuts the average to five class terms.  zI is central, and
rho(zI) = zeta_8^r I, as tr rho(zI) = zeta_8^r dim forces every eigenvalue
of that image of finite order to be zeta_8^r.  So tr rho((z^k s)^-1) =
zeta_8^(-r k) tr rho(s^-1) and, (1 - t^8)(1 - t^24) being fixed by
t -> zeta_8 t, Q_(z^k s)(t) = Q_s(zeta_8^k t): the eight elements z^k s
add sum_k zeta_8^(k (n - r)) times the term of s to t^n, which is 0 unless
n = r (mod 8), as in covariants' central constraint.  The 32 classes are
z^k h for the five bases h of group.CLASS_BASES, the table's representative
of class (h, k) being the matrix zeta_8^k h, so for n = r (mod 8)

    P_rho[n] = sum_h (sum_(k < count) |C_(z^k h)|) tr rho(h^-1) Q_h[n] / |G|

with tr rho(h^-1) read in the column of the class of h^-1, and P_rho[n] = 0
otherwise.  Each Q_h is divided out exactly, and P_rho is proven to have
non-negative integer coefficients summing to dim(rho).  The covariant
module is free over C[theta, phi] (Chevalley, Amer. J. Math. 77 (1955)), so
P_rho also lists its generator degrees (Stanley).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import group
from .group import GroupTable, class_inverses, class_sizes
from .linalg import cyc_mul, zeta_shift
from .cyclo import render_zeta
from .reps import DEN, Representation
# rep_matrices is re-exported: perfbench/spans.py wraps it under this name
from .reps import rep_matrices  # noqa: F401

TOP = 30        # degree of each class numerator Q_h


class MolienError(RuntimeError):
    """A class numerator, the central character or a numerator coefficient failed a check."""


@dataclass(frozen=True)
class MolienResult:
    rep_id: int
    numerator: tuple[tuple[int, int], ...]   # (degree, coefficient), ascending

    def coefficient(self, d: int) -> int:
        """dim M(rho)_d: numerator term (g, n) adds n * #{8a + 24b = d - g}."""
        return sum(n * ((d - g) // 24 + 1) for g, n in self.numerator
                   if g <= d and (d - g) % 8 == 0)

    def series(self, n: int) -> tuple[int, ...]:
        """The coefficients c_0 .. c_n."""
        return tuple(self.coefficient(d) for d in range(n + 1))

    def head(self, n_terms: int) -> list[tuple[int, int]]:
        """The first n nonzero (degree, coefficient) pairs."""
        out = []
        d = 0
        while self.numerator and len(out) < n_terms:
            c = self.coefficient(d)
            if c:
                out.append((d, c))
            d += 1
        return out


@lru_cache(maxsize=8)
def _class_numerator(label: str, trace: tuple[int, ...], det: tuple[int, ...]
                     ) -> tuple[tuple[int, int, int, int], ...]:
    """Q_h[0] .. Q_h[TOP] of (1 - t^8)(1 - t^24) / (1 - trace t + det t^2), class label.

    trace, det and each Q_h[n] are integer coordinate tuples.  Exact division
    from the low end, q_n = u_n + trace q_(n-1) - det q_(n-2) for the dividend
    u: the quotient is a polynomial exactly when q_(TOP+1) and q_(TOP+2)
    vanish, since u_n = 0 above TOP + 2.  Memoized per class: Q_h does not
    depend on the representation.
    """
    dividend = {0: 1, 8: -1, 24: -1, 32: 1}        # (1 - t^8)(1 - t^24)
    q = [(0, 0, 0, 0)] * 2                          # q_(-2), q_(-1)
    for n in range(TOP + 3):
        q.append(tuple(u + x - y for u, x, y in zip((dividend.get(n, 0), 0, 0, 0),
                                                     cyc_mul(q[-1], trace), cyc_mul(q[-2], det))))
    if any(map(any, q[TOP + 3:])):
        raise MolienError(f"class {label}: 1 - ({render_zeta(trace, 1)})t + "
                          f"({render_zeta(det, 1)})t^2 does not divide (1 - t^8)(1 - t^24)")
    return tuple(q[2:TOP + 3])


@lru_cache(maxsize=2)
def _class_factors(table: GroupTable) -> tuple[tuple[int, int, str, tuple, tuple], ...]:
    """(size, inverse, label, tr h, det h) for each base h of group.CLASS_BASES.

    size is sum_k |C_(z^k h)|, inverse the column of the class of h^-1, tr h
    and det h integer coordinate tuples; MolienError names the first base
    where either is not integral.
    """
    sizes, inverse = class_sizes(table), class_inverses(table)
    out, pos = [], 0
    for _, count in group.CLASS_BASES:
        label = table.class_labels[pos]
        (a, b), (c, d) = table.elements[table.class_reps[pos]].coords
        tr = [x + y for x, y in zip(a, d)]                                  # over group.DEN
        dt = [x - y for x, y in zip(cyc_mul(a, d), cyc_mul(b, c))]          # over group.DEN^2
        if any(x % group.DEN for x in tr) or any(x % group.DEN ** 2 for x in dt):
            raise MolienError(f"class {label}: Q_h needs integral trace and det, got "
                              f"{render_zeta(tr, group.DEN)}, "
                              f"{render_zeta(dt, group.DEN ** 2)}")
        out.append((sum(sizes[pos:pos + count]), inverse[pos], label,
                    tuple(x // group.DEN for x in tr), tuple(x // group.DEN ** 2 for x in dt)))
        pos += count
    return tuple(out)


def molien_series(rep: Representation, table: GroupTable, traces: tuple) -> MolienResult:
    """Exact equivariant Molien numerator of rep, from its 32 class traces over reps.DEN.

    The central residue r from tr rho(zI) = zeta_8^r tr rho(I), then one sum
    over the five bases per degree n = r (mod 8) (module docstring).  Each
    coefficient must be a non-negative integer, and they must sum to dim(rho).
    """
    r = next((k for k in range(8) if traces[1] == zeta_shift(traces[0], k)), None)
    if r is None:
        raise MolienError(f"rho_{rep.rid}: tr rho(zI) = {render_zeta(traces[1], DEN)} "
                          f"is not a power of zeta_8 times the dimension")
    acc = dict.fromkeys(range(r, TOP + 1, 8), (0, 0, 0, 0))
    for size, inverse, *factors in _class_factors(table):
        weight = [size * x for x in traces[inverse]]
        if any(weight):
            q = _class_numerator(*factors)
            for n in acc:
                acc[n] = tuple(x + y for x, y in zip(acc[n], cyc_mul(weight, q[n])))
    scale = len(table) * DEN
    bad = [n for n, x in acc.items() if any(x[1:]) or x[0] % scale or x[0] < 0]
    if bad:
        raise MolienError(f"rho_{rep.rid}: coefficient of t^{bad[0]} is "
                          f"{render_zeta(acc[bad[0]], scale)} in the Molien numerator")
    numerator = tuple((n, x[0] // scale) for n, x in acc.items() if x[0])
    total = sum(c for _, c in numerator)
    if total != rep.dim:
        raise MolienError(
            f"rho_{rep.rid}: numerator coefficients sum to {total}, not dim {rep.dim}")
    return MolienResult(rep.rid, numerator)
