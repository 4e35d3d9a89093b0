"""Exact arithmetic in the cyclotomic field Q(zeta_8).

A CycNum, the scalar of the characters, the reference tables and the
rendered output, is a Q-linear combination c0 + c1*z + c2*z^2 + c3*z^3
reduced modulo z^4 + 1, where z = zeta_8 = e^{i*pi/4}.  Group elements and
representation images are int64 arrays of the same four coordinates (see
linalg), decoded to CycNum only to be printed; covariants are rational and
use int and Fraction instead.  Useful identities in this basis:

    z^2         = i
    z - z^3     = sqrt(2)
    (z - z^3)/2 = 1/sqrt(2)

Internally a value is stored as four integers over one positive common
denominator, reduced so that gcd of all five numbers is 1.  Equality is
therefore component-wise; rational values hash like the equal int or
Fraction, so they are interchangeable as dict keys.  Rationals are the
special case c1 = c2 = c3 = 0 (see the Fraction-valued ``coeffs`` view).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

Rat = Fraction


class CycNum:
    """An element of Q(zeta_8) in the basis 1, z, z^2, z^3 modulo z^4 + 1."""

    __slots__ = ("_n", "_d")

    def __init__(self, n0=0, n1=0, n2=0, n3=0, den=1):
        """(n0 + n1 z + n2 z^2 + n3 z^3) / den for rational n_i and den != 0."""
        parts = [Fraction(n) / den for n in (n0, n1, n2, n3)]
        den_all = 1
        for p in parts:
            den_all = den_all * p.denominator // gcd(den_all, p.denominator)
        nums = tuple(int(p * den_all) for p in parts)
        self._n, self._d = _reduce(nums, den_all)

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _make(nums, den):
        v = CycNum.__new__(CycNum)
        v._n, v._d = _reduce(nums, den)
        return v

    @classmethod
    def zeta(cls, k: int) -> CycNum:
        """z^k for any integer k (z^8 = 1, z^4 = -1)."""
        k %= 8
        sign = 1 if k < 4 else -1
        n = [0, 0, 0, 0]
        n[k % 4] = sign
        return cls._make(tuple(n), 1)

    # -- views -----------------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        """The four rational coordinates (c0, c1, c2, c3)."""
        d = self._d
        return tuple(Fraction(n, d) for n in self._n)

    def is_zero(self) -> bool:
        return self._n == (0, 0, 0, 0)

    def __bool__(self) -> bool:
        return self._n != (0, 0, 0, 0)

    # -- ring operations --------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._n, other._n
        da, db = self._d, other._d
        return CycNum._make(
            (a[0] * db + b[0] * da, a[1] * db + b[1] * da,
             a[2] * db + b[2] * da, a[3] * db + b[3] * da),
            da * db)

    __radd__ = __add__

    def __neg__(self):
        n = self._n
        v = CycNum.__new__(CycNum)
        v._n = (-n[0], -n[1], -n[2], -n[3])
        v._d = self._d
        return v

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a0, a1, a2, a3 = self._n
        b0, b1, b2, b3 = other._n
        # convolution reduced by z^4 -> -1
        return CycNum._make(
            (a0 * b0 - a1 * b3 - a2 * b2 - a3 * b1,
             a0 * b1 + a1 * b0 - a2 * b3 - a3 * b2,
             a0 * b2 + a1 * b1 + a2 * b0 - a3 * b3,
             a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0),
            self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return _coerce(other) * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result = ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def galois(self, k: int) -> CycNum:
        """The field automorphism z -> z^k for odd k in {1, 3, 5, 7}."""
        if k % 2 == 0:
            raise ValueError("Galois exponent must be odd")
        n = self._n
        out = [0, 0, 0, 0]
        for p in range(4):
            q = p * k
            s = 1 if (q % 8) < 4 else -1
            out[q % 4] += s * n[p]
        return CycNum._make(tuple(out), self._d)

    def conj(self) -> CycNum:
        """Complex conjugation, the automorphism z -> z^7 = -z^3."""
        n = self._n
        v = CycNum.__new__(CycNum)
        v._n = (n[0], -n[3], -n[2], -n[1])
        v._d = self._d
        return v

    def inverse(self) -> CycNum:
        """Multiplicative inverse; raises ZeroDivisionError on zero."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta_8)")
        # a * conj(a) lies in the real subfield Q(sqrt2); multiplying by its
        # sqrt2 -> -sqrt2 image gives the rational field norm.
        c = self.conj()
        b = self * c                    # p + q*sqrt2
        b5 = b.galois(5)                # p - q*sqrt2
        norm = b * b5                   # rational and nonzero
        num = c * b5                    # self * num == norm
        return CycNum._make(tuple(n * norm._d for n in num._n),
                            num._d * norm._n[0])

    # -- comparison ---------------------------------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._n == other._n and self._d == other._d

    def __hash__(self):
        n = self._n
        if n[1] == n[2] == n[3] == 0:
            # equal to an int or Fraction, so it must hash like one
            return hash(Fraction(n[0], self._d))
        return hash((n, self._d))

    def key(self):
        """Canonical hashable key (four numerators and the denominator)."""
        return self._n + (self._d,)

    # -- text forms ------------------------------------------------------------------

    def __str__(self):
        return render_zeta(self)

    def __repr__(self):
        return f"CycNum({render_zeta(self)})"

    def to_json(self) -> list[str]:
        """Serialize as four 'num/den' strings in basis order."""
        d = self._d
        return [f"{n}/{d}" for n in self._n]


def _reduce(nums, den):
    if den < 0:
        nums = tuple(-n for n in nums)
        den = -den
    g = gcd(*nums, den)
    if g > 1:
        nums = tuple(n // g for n in nums)
        den //= g
    return nums, den


def _coerce(x):
    if isinstance(x, CycNum):
        return x
    if isinstance(x, int):
        v = CycNum.__new__(CycNum)
        v._n, v._d = (x, 0, 0, 0), 1
        return v
    if isinstance(x, Fraction):
        v = CycNum.__new__(CycNum)
        v._n, v._d = _reduce((x.numerator, 0, 0, 0), x.denominator)
        return v
    return NotImplemented


ZERO = CycNum(0)
ONE = CycNum(1)
Z = CycNum.zeta(1)
I_UNIT = CycNum.zeta(2)
SQRT2 = CycNum(0, 1, 0, -1)          # z - z^3
HALF_SQRT2 = CycNum(0, Fraction(1, 2), 0, Fraction(-1, 2))


def rational(x) -> CycNum:
    """Embed an int or Fraction into Q(zeta_8)."""
    v = _coerce(x)
    if v is NotImplemented:
        raise TypeError(f"cannot embed {x!r}")
    return v


def render_zeta(a: CycNum) -> str:
    """Render as an integer (or rational) combination of powers of z.

    Examples: '0', '2', '-1/2', 'z^2+1', '-z^3-z', '2z', '(3/2)z^2'.
    Terms are listed with the power of z descending, constant last.
    """
    if a.is_zero():
        return "0"
    d = a._d
    pieces = []
    for p in (3, 2, 1, 0):
        n = a._n[p]
        if n == 0:
            continue
        if d == 1:
            coeff = str(abs(n))
        else:
            coeff = f"({abs(n)}/{d})"
        if p == 0:
            body = coeff if d == 1 else f"{abs(n)}/{d}"
        else:
            zpow = "z" if p == 1 else f"z^{p}"
            body = zpow if (abs(n) == 1 and d == 1) else f"{coeff}{zpow}"
        sign = "-" if n < 0 else "+"
        pieces.append((sign, body))
    first_sign, first_body = pieces[0]
    out = (first_sign if first_sign == "-" else "") + first_body
    for sign, body in pieces[1:]:
        out += sign + body
    return out


_TERM_RE = re.compile(r"^([+-]?\d*)(?:(z)(?:\^(\d+))?)?$")


def parse_zeta(text: str) -> CycNum:
    """Parse the integer-combination notation produced by render_zeta."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty cyclotomic literal")
    if s == "0":
        return ZERO
    # split into signed terms
    terms = re.findall(r"[+-]?[^+-]+", s)
    total = ZERO
    for term in terms:
        m = _TERM_RE.match(term)
        if not m or (m.group(1) in ("", "+", "-") and m.group(2) is None):
            raise ValueError(f"bad cyclotomic term {term!r} in {text!r}")
        coeff_s, zsym, pow_s = m.groups()
        coeff = int(coeff_s) if coeff_s not in ("", "+", "-") else (-1 if coeff_s == "-" else 1)
        if zsym is None:
            total = total + coeff
        else:
            p = int(pow_s) if pow_s else 1
            total = total + CycNum.zeta(p) * coeff
    return total
