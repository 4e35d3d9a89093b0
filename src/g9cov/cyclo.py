"""Text forms of numbers of the cyclotomic field Q(zeta_8).

g9cov carries a number of Q(zeta_8) as four integer coordinates over a
denominator, (n0 + n1*z + n2*z^2 + n3*z^3) / den with z = zeta_8 =
e^{i*pi/4} and z^4 = -1; linalg does arithmetic on tuples of Python ints
of them.
This module holds only their text forms: render_zeta and to_json write a
number in lowest terms (the gcd of the four numerators and den is 1, den
positive), and parse_zeta reads the integer notation back.  Useful
identities in this basis:

    z^2         = i
    z - z^3     = sqrt(2)
    (z - z^3)/2 = 1/sqrt(2)
"""

from __future__ import annotations

import re
from math import gcd


def _reduce(nums, den: int) -> tuple[tuple[int, int, int, int], int]:
    """nums / den in lowest terms with den > 0, as Python ints."""
    nums, den = tuple(int(n) for n in nums), int(den)
    if den == 0:
        raise ZeroDivisionError("zero denominator in Q(zeta_8)")
    if den < 0:
        nums, den = tuple(-n for n in nums), -den
    g = gcd(*nums, den)
    return tuple(n // g for n in nums), den // g


def render_zeta(nums, den: int) -> str:
    """Render nums / den as an integer (or rational) combination of powers of z.

    Examples: '0', '2', '-1/2', 'z^2+1', '-z^3-z', '2z', '(3/2)z^2'.
    Terms are listed with the power of z descending, constant last.
    """
    nums, den = _reduce(nums, den)
    out = ""
    for p in (3, 2, 1, 0):
        n = nums[p]
        if n == 0:
            continue
        if p == 0:
            body = str(abs(n)) if den == 1 else f"{abs(n)}/{den}"
        else:
            zpow = "z" if p == 1 else f"z^{p}"
            if den != 1:
                body = f"({abs(n)}/{den}){zpow}"
            else:
                body = zpow if abs(n) == 1 else f"{abs(n)}{zpow}"
        out += ("-" if n < 0 else "+") + body
    return out.removeprefix("+") or "0"


def to_json(nums, den: int) -> list[str]:
    """nums / den as four 'num/den' strings in lowest terms, in basis order."""
    nums, den = _reduce(nums, den)
    return [f"{n}/{den}" for n in nums]


_TERM_RE = re.compile(r"^([+-]?\d*)(?:(z)(?:\^(\d+))?)?$")


def parse_zeta(text: str) -> tuple[int, int, int, int]:
    """The integer coordinates of a literal in the notation of render_zeta.

    Terms are integer multiples of z^p for any p >= 0, reduced through
    z^4 = -1; ValueError on a malformed literal.
    """
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty cyclotomic literal")
    terms = re.findall(r"[+-]?[^+-]+", s)
    if "".join(terms) != s:
        raise ValueError(f"dangling sign in cyclotomic literal {text!r}")
    nums = [0, 0, 0, 0]
    for term in terms:
        m = _TERM_RE.match(term)
        if not m or (m.group(1) in ("", "+", "-") and m.group(2) is None):
            raise ValueError(f"bad cyclotomic term {term!r} in {text!r}")
        coeff_s, zsym, pow_s = m.groups()
        coeff = int(coeff_s) if coeff_s not in ("", "+", "-") else (-1 if coeff_s == "-" else 1)
        p = 0 if zsym is None else int(pow_s) if pow_s else 1
        nums[p % 4] += coeff if p % 8 < 4 else -coeff
    return tuple(nums)
