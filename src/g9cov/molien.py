"""Equivariant Molien series for the covariant modules.

The Hilbert series of the module of rho-covariants is the group average of
tr(rho(s^{-1})) / det(I - t s), with the denominator taken in the natural
2x2 action.  Both the numerator trace and det(I - t s) = 1 - tr(s) t +
det(s) t^2 are class functions, so the sum runs over the 32 conjugacy
classes weighted by class size, in int64 on Z[zeta_8] coordinates: the
traces come from the integer images of reps.rep_matrices, and tr s and
det s from the coordinates of the class representatives s.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import group
from .group import GroupTable, class_sizes
from .linalg import CYC_STRUCT, right_factor
from .cyclo import render_zeta
from .reps import DEN, Representation, class_traces
# rep_matrices is re-exported: perfbench/spans.py wraps it under this name
from .reps import rep_matrices  # noqa: F401

TOP = 30        # degree of each class numerator Q_c


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
def _class_numerator(label: str, trace: tuple[int, ...], det: tuple[int, ...]) -> np.ndarray:
    """Z[zeta_8] coordinates of (1 - t^8)(1 - t^24) / (1 - trace*t + det*t^2).

    A read-only int64 (TOP + 1, 4) array for the class named label; trace
    and det are integer coordinate tuples.
    Exact division from the low end by q_n = u_n + trace q_(n-1) -
    det q_(n-2), u the dividend: the power series quotient is a polynomial
    of degree TOP exactly when the remainder terms q_(TOP+1), q_(TOP+2)
    vanish, since u_n = 0 above TOP + 2 and every later term follows from
    those two.
    Memoized per class: Q_c does not depend on the representation.
    """
    by_tr, by_det = (np.einsum("p,pqr->qr", np.array(x), CYC_STRUCT) for x in (trace, det))
    out = np.zeros((TOP + 3, 4), dtype=np.int64)
    out[[0, 8, 24, 32], 0] = 1, -1, -1, 1        # the dividend (1 - t^8)(1 - t^24)
    for n in range(1, TOP + 3):
        out[n] += out[n - 1] @ by_tr - (out[n - 2] @ by_det if n >= 2 else 0)
    if out[TOP + 1:].any():
        raise MolienError(f"class {label}: 1 - ({render_zeta(trace, 1)})t + "
                          f"({render_zeta(det, 1)})t^2 does not divide (1 - t^8)(1 - t^24)")
    out = out[:TOP + 1]
    out.flags.writeable = False
    return out


@lru_cache(maxsize=2)
def _class_factors(table: GroupTable) -> tuple[tuple[str, tuple, tuple], ...]:
    """(label, tr s, det s) of the natural matrix s at each reference class.

    tr s and det s as integer coordinate tuples; MolienError names the
    first class where either is not integral.
    """
    s = np.stack([table.elements[r].coords for r in table.class_reps])
    trace = s[:, 0, 0] + s[:, 1, 1]                                 # over group.DEN
    det = (np.einsum("cp,cq,pqr->cr", s[:, 0, 0], s[:, 1, 1], CYC_STRUCT)
           - np.einsum("cp,cq,pqr->cr", s[:, 0, 1], s[:, 1, 0], CYC_STRUCT))   # over group.DEN^2
    out = []
    for label, tr, dt in zip(table.class_labels, trace.tolist(), det.tolist()):
        if any(x % group.DEN for x in tr) or any(x % group.DEN ** 2 for x in dt):
            raise MolienError(f"class {label}: Q_c needs integral trace and det, got "
                              f"{render_zeta(tr, group.DEN)}, "
                              f"{render_zeta(dt, group.DEN ** 2)}")
        out.append((label, tuple(x // group.DEN for x in tr),
                    tuple(x // group.DEN ** 2 for x in dt)))
    return tuple(out)


def molien_series(rep: Representation, table: GroupTable,
                  mats: np.ndarray) -> MolienResult:
    """Exact equivariant Molien numerator of rep.

    One int64 sum over the classes of |C| tr rho(s^-1) Q_c with traces over
    reps.DEN: the (TOP + 1) x 32 matrix of the Q_c times that column.  Each
    coefficient must be a non-negative integer, and they must sum to dim(rho).
    """
    chi_inv = class_traces(mats[table.inverse], table)
    numerators = np.stack([_class_numerator(*f) for f in _class_factors(table)], axis=1)
    weights = chi_inv[:, None] * np.array(class_sizes(table))[:, None, None]
    acc = numerators.reshape(TOP + 1, -1) @ right_factor(weights)
    scale = len(table) * DEN
    bad = np.flatnonzero(acc[:, 1:].any(axis=1) | (acc[:, 0] % scale != 0) | (acc[:, 0] < 0))
    if len(bad):
        raise MolienError(f"rho_{rep.rid}: coefficient of t^{bad[0]} is "
                          f"{render_zeta(acc[bad[0]], scale)} in the Molien numerator")
    numerator = tuple((d, c) for d, c in enumerate((acc[:, 0] // scale).tolist()) if c)
    total = sum(c for _, c in numerator)
    if total != rep.dim:
        raise MolienError(
            f"rho_{rep.rid}: numerator coefficients sum to {total}, not dim {rep.dim}")
    return MolienResult(rep.rid, numerator)
