"""Exact bivariate polynomial algebra.

BiPoly is a sparse map from exponent pairs (a, b) to nonzero coefficients,
the term being x^a y^b, over exact field scalars: int and Fraction here,
as every covariant is rational (the test oracles also use Q(zeta_8)
scalars); a float raises TypeError.  The global term order is graded
lexicographic with x > y: higher total degree first, ties broken by the x
exponent.
VecPoly bundles m components of one common homogeneous degree and is the
carrier type for covariants.

The four classical octahedral forms live here:

    gamma = -x^5 y + x y^5                      (degree 6)
    theta = x^8 + 14 x^4 y^4 + y^8              (degree 8)
    delta = x^12 - 33 x^8 y^4 - 33 x^4 y^8 + y^12   (degree 12)
    phi   = x^24 + 759 x^16 y^8 + 2576 x^12 y^12 + 759 x^8 y^16 + y^24

and satisfy phi = delta^2 + 66 gamma^4 exactly.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping


def _exact(c):
    if isinstance(c, (float, complex)):
        raise TypeError(f"inexact coefficient {c!r}")
    return c


def _grlex_key(term: tuple[int, int]) -> tuple[int, int]:
    a, b = term
    return (a + b, a)


class BiPoly:
    """Sparse polynomial in x, y with exact coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, int], object] | None = None):
        clean = {}
        if terms:
            for (a, b), c in terms.items():
                if _exact(c):
                    clean[(a, b)] = c
        self.terms = clean

    @classmethod
    def constant(cls, c) -> BiPoly:
        return cls({(0, 0): c})

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree, -1 for the zero polynomial."""
        return max((a + b for a, b in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degs = {a + b for a, b in self.terms}
        return len(degs) <= 1

    def coeff(self, a: int, b: int):
        return self.terms.get((a, b), 0)

    # -- ring operations ----------------------------------------------------------

    def __add__(self, other: BiPoly) -> BiPoly:
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k)
            s = c if s is None else s + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        p = BiPoly.__new__(BiPoly)
        p.terms = out
        return p

    def __neg__(self) -> BiPoly:
        p = BiPoly.__new__(BiPoly)
        p.terms = {k: -c for k, c in self.terms.items()}
        return p

    def __sub__(self, other: BiPoly) -> BiPoly:
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, BiPoly):
            return self.scale(other)
        out = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                k = (a1 + a2, b1 + b2)
                c = c1 * c2
                s = out.get(k)
                s = c if s is None else s + c
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        p = BiPoly.__new__(BiPoly)
        p.terms = out
        return p

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> BiPoly:
        if not _exact(c):
            return BiPoly()
        p = BiPoly.__new__(BiPoly)
        p.terms = {k: c * v for k, v in self.terms.items()}
        return p

    def __pow__(self, k: int) -> BiPoly:
        if k < 0:
            raise ValueError("negative polynomial power")
        result = BiPoly.constant(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        return isinstance(other, BiPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- group action and symmetry ---------------------------------------------------

    def substitute(self, g) -> BiPoly:
        """f evaluated at x -> g11 x + g12 y, y -> g21 x + g22 y.

        This realizes the substitution action f |-> f(g x) for any 2x2
        matrix g that has rows, cols and exact scalars at(i, j); powers of
        the two image linear forms are built once and reused across terms.  No
        production code calls it: the covariance checks use the integer T
        action of CovariantEngine, and tests use this as its oracle.
        """
        if g.rows != 2 or g.cols != 2:
            raise ValueError("substitution needs a 2x2 matrix")
        if not self.terms:
            return BiPoly()
        lx = BiPoly({(1, 0): g.at(0, 0), (0, 1): g.at(0, 1)})
        ly = BiPoly({(1, 0): g.at(1, 0), (0, 1): g.at(1, 1)})
        max_a = max(a for a, _ in self.terms)
        max_b = max(b for _, b in self.terms)
        px = [BiPoly.constant(1)]
        for _ in range(max_a):
            px.append(px[-1] * lx)
        py = [BiPoly.constant(1)]
        for _ in range(max_b):
            py.append(py[-1] * ly)
        out = BiPoly()
        for (a, b), c in self.terms.items():
            out = out + (px[a] * py[b]).scale(c)
        return out

    def tau(self) -> BiPoly:
        """The coordinate swap (x, y) -> (y, x)."""
        p = BiPoly.__new__(BiPoly)
        p.terms = {(b, a): c for (a, b), c in self.terms.items()}
        return p

    # -- text form -----------------------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple[int, int], object]]:
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (a, b), c in self.sorted_terms():
            mono = []
            if a:
                mono.append("x" if a == 1 else f"x^{a}")
            if b:
                mono.append("y" if b == 1 else f"y^{b}")
            cs = str(c)
            neg = cs.startswith("-") and "+" not in cs and cs.count("-") == 1
            if neg:
                cs = cs[1:]
            if not mono:
                body = cs
            elif cs == "1":
                body = "*".join(mono)
            else:
                if any(ch in cs for ch in "+-"):
                    cs = f"({cs})"
                body = "*".join([cs] + mono)
            parts.append(("-" if neg else "+", body))
        sign, body = parts[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"BiPoly({self.to_text()})"


def fundamental_invariants() -> tuple[BiPoly, BiPoly, BiPoly, BiPoly]:
    """The octahedral forms (gamma, theta, delta, phi) of degrees 6, 8, 12, 24."""
    gamma = BiPoly({(5, 1): -1, (1, 5): 1})
    theta = BiPoly({(8, 0): 1, (4, 4): 14, (0, 8): 1})
    delta = BiPoly({(12, 0): 1, (8, 4): -33, (4, 8): -33, (0, 12): 1})
    phi = BiPoly({(24, 0): 1, (16, 8): 759, (12, 12): 2576, (8, 16): 759, (0, 24): 1})
    return gamma, theta, delta, phi


class VecPoly:
    """An m-tuple of homogeneous bivariate polynomials of one common degree."""

    __slots__ = ("components", "degree")

    def __init__(self, components: Iterable[BiPoly], degree: int | None = None):
        comps = tuple(components)
        degs = {c.degree() for c in comps if not c.is_zero()}
        if len(degs) > 1 or any(not c.is_homogeneous() for c in comps):
            raise ValueError("components must share one homogeneous degree")
        if degree is None:
            if not degs:
                raise ValueError("degree required for the zero vector")
            degree = degs.pop()
        elif degs and degs.pop() != degree:
            raise ValueError("stated degree does not match components")
        self.components = comps
        self.degree = degree

    def mul_poly(self, f: BiPoly) -> VecPoly:
        """Module action of a homogeneous scalar polynomial."""
        if f.is_zero():
            raise ValueError("scaling a covariant by the zero polynomial")
        if not f.is_homogeneous():
            raise ValueError("module action needs a homogeneous scalar")
        return VecPoly([f * p for p in self.components], self.degree + f.degree())

    def __eq__(self, other):
        return (isinstance(other, VecPoly) and self.degree == other.degree
                and self.components == other.components)

    def __hash__(self):
        return hash((self.degree, self.components))

    @classmethod
    def from_coeffs(cls, coords: list[tuple[int, int]], values: list,
                    m: int, degree: int) -> VecPoly:
        comps = [dict() for _ in range(m)]
        for (j, a), v in zip(coords, values):
            if v:
                comps[j][(a, degree - a)] = v
        return cls([BiPoly(t) for t in comps], degree)

    def to_text(self) -> list[str]:
        return [p.to_text() for p in self.components]

    def __repr__(self):
        return f"VecPoly(deg={self.degree}, {self.to_text()})"
