"""Equivariant Molien series for the covariant modules.

The Hilbert series of the module of rho-covariants is the group average of
tr(rho(s^{-1})) / det(I - t s), with the denominator taken in the natural
2x2 action.  Both the numerator trace and det(I - t s) = 1 - tr(s) t +
det(s) t^2 are class functions, so the sum runs over the 32 conjugacy
classes weighted by class size; each 1/det factor is expanded by the
series recurrence c_n = tr(s) c_{n-1} - det(s) c_{n-2}, once per class and
cutoff for all representations.

Every series produced here is proven to have non-negative integer
coefficients, and multiplying by (1 - t^8)(1 - t^24) must leave an
integer polynomial whose coefficients sum to dim(rho).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .cyclo import CycNum, ONE, ZERO
from .group import GroupTable
from .linalg import Mat
from .reps import Representation, rep_matrices

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
def _inverse_det_series(trace: CycNum, det: CycNum, cutoff: int) -> tuple[CycNum, ...]:
    """Coefficients of 1 / (1 - trace*t + det*t^2) up to t^cutoff.

    Memoized: the expansion depends only on the class, not on the
    representation, so each class is expanded once per cutoff.
    """
    coeffs = [ONE]
    if cutoff >= 1:
        coeffs.append(trace)
    for _ in range(2, cutoff + 1):
        coeffs.append(trace * coeffs[-1] - det * coeffs[-2])
    return tuple(coeffs)


def molien_series(rep: Representation, table: GroupTable,
                  cutoff: int = DEFAULT_CUTOFF,
                  mats: list[Mat] | None = None) -> MolienResult:
    """Class-summed equivariant Molien series with its numerator."""
    if mats is None:
        mats = rep_matrices(rep, table)
    acc = [ZERO] * (cutoff + 1)
    for pos, bid in enumerate(table.class_block_order):
        r = table.class_reps[pos]
        size = len(table.classes[bid])
        tr_inv = mats[table.inverse[r]].trace()
        if tr_inv.is_zero():
            continue
        natural = table.elements[r].mat
        expansion = _inverse_det_series(natural.trace(), _det2(natural), cutoff)
        weight = tr_inv * size
        for n in range(cutoff + 1):
            acc[n] = acc[n] + weight * expansion[n]
    order = len(table)
    series = []
    for n, value in enumerate(acc):
        if not value.is_rational():
            raise MolienError(f"rho_{rep.rid}: coefficient of t^{n} is {value}")
        q = value.as_fraction() / order
        if q.denominator != 1 or q < 0:
            raise MolienError(f"rho_{rep.rid}: coefficient of t^{n} is {q}")
        series.append(int(q))
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
