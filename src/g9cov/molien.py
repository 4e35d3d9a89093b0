"""Equivariant Molien series for the covariant modules.

The Hilbert series of the module of rho-covariants is the group average of
tr(rho(s^{-1})) / det(I - t s), with the denominator taken in the natural
2x2 action.  Both the numerator trace and det(I - t s) = 1 - tr(s) t +
det(s) t^2 are class functions, so the sum runs over the 32 conjugacy
classes weighted by class size, in Python ints on Z[zeta_8] coordinates:
tr rho(s^-1) is the character's entry in the column of the class of s^-1
(group.class_inverses), and tr s and det s come from the coordinates of
the class representatives s.

The invariant ring is C[theta, phi] with degrees 8 and 24.  Every element
of G9 has order dividing 24, and an element with a repeated eigenvalue is
scalar, so central of order dividing 8; hence det(I - t s_c) divides
(1 - t^8)(1 - t^24) and, for every class c,

    Q_c = (1 - t^8)(1 - t^24) / det(I - t s_c)

is a polynomial of degree 30.  It is computed once per class by exact
division from the low end, and the two remainder terms (t^31, t^32) are
checked to be zero.  The numerator P_rho is then a finite class sum of
|C| tr rho(s_c^-1) Q_c over |G|, proven to have non-negative integer
coefficients summing to dim(rho), and the Hilbert series is exactly
P_rho / ((1 - t^8)(1 - t^24)) in every degree: no series is truncated.
Since the covariant module is free over C[theta, phi] (Chevalley, Amer.
J. Math. 77 (1955)), P_rho also lists its generator degrees (Stanley,
Bull. AMS 1 (1979)).

The class sum runs on packed polynomials (Kronecker substitution): Q_c is
kept as four integers, coordinate p of Q_c being sum_n Q_c[n][p] 2^(SLOT n),
so each class costs 16 integer products, not 16 (TOP + 1).  The digits are
read back exactly: every coefficient of the sum is checked, from the
heights of the Q_c and of the weights, to lie below 2^(SLOT - 1) in
absolute value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import group
from .group import GroupTable, class_inverses, class_sizes
from .linalg import cyc_mul
from .cyclo import render_zeta
from .reps import DEN, Representation
# rep_matrices is re-exported: perfbench/spans.py wraps it under this name
from .reps import rep_matrices  # noqa: F401

TOP = 30        # degree of each class numerator Q_c
SLOT = 64       # bits per coefficient of a packed polynomial


class MolienError(RuntimeError):
    """A class numerator or a Molien numerator coefficient failed an exact check."""


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


@lru_cache(maxsize=32)
def _class_numerator(label: str, trace: tuple[int, ...], det: tuple[int, ...]
                     ) -> tuple[tuple[int, int, int, int], int]:
    """Z[zeta_8] coordinates of (1 - t^8)(1 - t^24) / (1 - trace*t + det*t^2).

    Returns Q_c for the class named label packed (coordinate p as
    sum_n Q_c[n][p] 2^(SLOT n), n <= TOP) and its height, the largest
    |Q_c[n][p]|; trace and det are integer coordinate tuples.
    Exact division from the low end by q_n = u_n + trace q_(n-1) -
    det q_(n-2), u the dividend: the power series quotient is a polynomial
    of degree TOP exactly when the remainder terms q_(TOP+1), q_(TOP+2)
    vanish, since u_n = 0 above TOP + 2 and every later term follows from
    those two.
    Memoized per class: Q_c does not depend on the representation.
    """
    dividend = {0: 1, 8: -1, 24: -1, 32: 1}        # (1 - t^8)(1 - t^24)
    out: list[tuple[int, ...]] = []
    for n in range(TOP + 3):
        q = [dividend.get(n, 0), 0, 0, 0]
        if n >= 1:
            q = [x + y for x, y in zip(q, cyc_mul(out[n - 1], trace))]
        if n >= 2:
            q = [x - y for x, y in zip(q, cyc_mul(out[n - 2], det))]
        out.append(tuple(q))
    if any(map(any, out[TOP + 1:])):
        raise MolienError(f"class {label}: 1 - ({render_zeta(trace, 1)})t + "
                          f"({render_zeta(det, 1)})t^2 does not divide (1 - t^8)(1 - t^24)")
    packed = tuple(sum(q[p] << (SLOT * n) for n, q in enumerate(out[:TOP + 1]))
                   for p in range(4))
    return packed, max(abs(x) for q in out for x in q)


def _unpack(x: int) -> list[int]:
    """The TOP + 1 signed digits of a packed polynomial, each below 2^(SLOT - 1)."""
    digits, half = [], 1 << (SLOT - 1)
    for _ in range(TOP + 1):
        d = ((x + half) & ((1 << SLOT) - 1)) - half
        digits.append(d)
        x = (x - d) >> SLOT
    return digits


@lru_cache(maxsize=2)
def _class_factors(table: GroupTable) -> tuple[tuple[str, tuple, tuple], ...]:
    """(label, tr s, det s) of the natural matrix s at each reference class.

    tr s and det s as integer coordinate tuples; MolienError names the
    first class where either is not integral.
    """
    out = []
    for label, r in zip(table.class_labels, table.class_reps):
        (a, b), (c, d) = table.elements[r].coords
        tr = [x + y for x, y in zip(a, d)]                                  # over group.DEN
        dt = [x - y for x, y in zip(cyc_mul(a, d), cyc_mul(b, c))]          # over group.DEN^2
        if any(x % group.DEN for x in tr) or any(x % group.DEN ** 2 for x in dt):
            raise MolienError(f"class {label}: Q_c needs integral trace and det, got "
                              f"{render_zeta(tr, group.DEN)}, "
                              f"{render_zeta(dt, group.DEN ** 2)}")
        out.append((label, tuple(x // group.DEN for x in tr),
                    tuple(x // group.DEN ** 2 for x in dt)))
    return tuple(out)


def molien_series(rep: Representation, table: GroupTable, traces: tuple) -> MolienResult:
    """Exact equivariant Molien numerator of rep, from its 32 class traces over reps.DEN.

    One sum over the classes of |C| tr rho(s^-1) Q_c, tr rho(s^-1) read in
    the column of the class of s^-1, on packed polynomials (module
    docstring).  Each coefficient must be a non-negative integer, and they
    must sum to dim(rho).
    """
    sizes, inverse = class_sizes(table), class_inverses(table)
    acc, bound = [0, 0, 0, 0], 0        # coordinate r of the class sum, packed
    for c, factors in enumerate(_class_factors(table)):
        weight = [sizes[c] * x for x in traces[inverse[c]]]
        if not any(weight):
            continue
        packed, height = _class_numerator(*factors)
        bound += 4 * height * max(map(abs, weight))
        for q, w in enumerate(weight):
            for p, x in enumerate(packed):
                if w and x:                 # z^p z^q = -z^(p+q-4) past z^3
                    acc[(p + q) % 4] += w * x if p + q < 4 else -w * x
    if bound >= 1 << (SLOT - 1):
        raise MolienError(f"rho_{rep.rid}: the class sum exceeds 2^{SLOT - 1} per coefficient")
    acc = list(zip(*map(_unpack, acc)))
    scale = len(table) * DEN
    bad = [n for n, x in enumerate(acc) if any(x[1:]) or x[0] % scale or x[0] < 0]
    if bad:
        raise MolienError(f"rho_{rep.rid}: coefficient of t^{bad[0]} is "
                          f"{render_zeta(acc[bad[0]], scale)} in the Molien numerator")
    numerator = tuple((d, x[0] // scale) for d, x in enumerate(acc) if x[0])
    total = sum(c for _, c in numerator)
    if total != rep.dim:
        raise MolienError(
            f"rho_{rep.rid}: numerator coefficients sum to {total}, not dim {rep.dim}")
    return MolienResult(rep.rid, numerator)
