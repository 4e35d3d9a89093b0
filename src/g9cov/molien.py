"""Equivariant Molien series for the covariant modules.

The Hilbert series of the module of rho-covariants is the group average of
tr(rho(s^{-1})) / det(I - t s), with the denominator taken in the natural
2x2 action.  Both the numerator trace and det(I - t s) = 1 - tr(s) t +
det(s) t^2 are class functions, so the sum runs over the 32 conjugacy
classes weighted by class size, in int64 on Z[zeta_8] coordinates: the
traces come from the integer images of reps.rep_matrices, and each 1/det
factor is expanded by the recurrence c_n = tr(s) c_{n-1} - det(s) c_{n-2},
once per class and cutoff for all representations.

Every series produced here is proven to have non-negative integer
coefficients, and multiplying by (1 - t^8)(1 - t^24) must leave an
integer polynomial whose coefficients sum to dim(rho).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cyclo import CycNum
from .group import GroupTable, class_sizes
from .linalg import CYC_STRUCT, Mat
from .reps import DEN, Representation, class_traces, decode, rep_matrices

DEFAULT_CUTOFF = 64


class MolienError(RuntimeError):
    """A Molien coefficient came out non-integral or negative."""


class CutoffError(ValueError):
    """The series cutoff is too small to read off the numerator."""


@dataclass(frozen=True)
class MolienResult:
    rep_id: int
    cutoff: int
    series: tuple[int, ...]            # coefficients c_0 .. c_cutoff
    numerator: tuple[tuple[int, int], ...]   # (degree, coefficient), ascending

    def coefficient(self, d: int) -> int:
        return self.series[d]

    def head(self, n_terms: int) -> list[tuple[int, int]]:
        """The first n nonzero (degree, coefficient) pairs."""
        out = []
        for d, c in enumerate(self.series):
            if c:
                out.append((d, c))
                if len(out) == n_terms:
                    break
        return out


def _det2(m: Mat) -> CycNum:
    return m.at(0, 0) * m.at(1, 1) - m.at(0, 1) * m.at(1, 0)


@lru_cache(maxsize=256)     # 32 classes at 8 cutoffs
def _inverse_det_series(trace: CycNum, det: CycNum, cutoff: int) -> np.ndarray:
    """Z[zeta_8] coordinates of 1 / (1 - trace*t + det*t^2) through t^cutoff.

    A read-only int64 array; trace and det must be integral.  The eigenvalues
    of s are roots of unity, so no coordinate of c_n exceeds n + 1.  Memoized
    per (class, cutoff): the expansion does not depend on the representation.
    """
    if trace.key()[4] != 1 or det.key()[4] != 1:
        raise MolienError(f"1/det(I - t s) needs integral trace and det, got {trace}, {det}")
    by_tr, by_det = (np.einsum("p,pqr->qr", np.array(x.key()[:4]), CYC_STRUCT)
                     for x in (trace, det))
    out = np.zeros((cutoff + 1, 4), dtype=np.int64)
    out[0, 0] = 1
    for n in range(1, cutoff + 1):
        out[n] = out[n - 1] @ by_tr - (out[n - 2] @ by_det if n >= 2 else 0)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=2)
def _class_factors(table: GroupTable) -> tuple[tuple[CycNum, CycNum], ...]:
    """(tr s, det s) of the natural matrix s at each reference class."""
    return tuple((table.elements[r].mat.trace(), _det2(table.elements[r].mat))
                 for r in table.class_reps)


def molien_series(rep: Representation, table: GroupTable,
                  cutoff: int = DEFAULT_CUTOFF,
                  mats: np.ndarray | None = None) -> MolienResult:
    """Class-summed equivariant Molien series with its numerator.

    One int64 sum over the classes of |C| tr rho(s^-1) / det(I - t s) with
    traces over reps.DEN; each coefficient must be a non-negative integer.
    """
    if mats is None:
        mats = rep_matrices(rep, table)
    chi_inv = class_traces(mats[table.inverse], table)
    expansions = np.stack([_inverse_det_series(tr, det, cutoff)
                           for tr, det in _class_factors(table)])
    acc = np.einsum("c,cp,cnq,pqr->nr", class_sizes(table), chi_inv, expansions,
                    CYC_STRUCT, optimize=True)
    scale = len(table) * DEN
    bad = np.flatnonzero(acc[:, 1:].any(axis=1) | (acc[:, 0] % scale != 0) | (acc[:, 0] < 0))
    if len(bad):
        raise MolienError(
            f"rho_{rep.rid}: coefficient of t^{bad[0]} is {decode(acc[bad[0]], scale)}")
    series = (acc[:, 0] // scale).tolist()
    numerator = numerator_of(series, cutoff)
    total = sum(c for _, c in numerator)
    if total != rep.dim:
        raise MolienError(
            f"rho_{rep.rid}: numerator coefficients sum to {total}, not dim {rep.dim}")
    return MolienResult(rep.rid, cutoff, tuple(series), tuple(numerator))


def numerator_of(series: list[int], cutoff: int) -> list[tuple[int, int]]:
    """Multiply a series by (1 - t^8)(1 - t^24) and read off the polynomial.

    The product must vanish in degrees above cutoff - 32 (else the cutoff
    cannot prove the tail is zero) and have non-negative coefficients.
    """
    if cutoff < 60:
        raise CutoffError("cutoff must be at least 60 to isolate the numerator")

    def c(d: int) -> int:
        return series[d] if 0 <= d <= cutoff else 0

    out = []
    for d in range(cutoff + 1):
        v = c(d) - c(d - 8) - c(d - 24) + c(d - 32)
        if v:
            if d > cutoff - 32:
                raise CutoffError(
                    f"numerator has residual degree-{d} term at cutoff {cutoff}")
            if v < 0:
                raise MolienError(f"numerator coefficient {v} at degree {d}")
            out.append((d, v))
    return out
