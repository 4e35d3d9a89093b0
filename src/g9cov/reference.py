"""Frozen reference data for verification.

These tables pin the published values this package is checked against:
the 32x32 character table (columns in the class order z^k I, z^k D^2,
z^k D, z^k T, z^k TD), the class orders and sizes, the leading terms of
each covariant Hilbert series, the generator degree tables, and the
determinant factorization exponents.

One erratum in the printed character table is recorded here rather than
glossed over: rows 29..31 of the printed table are not the characters of
representations 29..31 in the numbering fixed by the construction and by
the covariant degree tables (which this package follows); they are
permuted by the relabeling in CHARACTER_ROW_SOURCE.  Printed row 29 holds
the character of rho_30, printed row 30 that of rho_31, and printed row
31 that of rho_29.  The printed rows are kept verbatim below, and the
table is exposed in both orders:

* character_table() is in the package numbering: row i - 1 holds chi_i;
* printed_character_table() is the verbatim printed order, which verify
  reports on its chartable line as a named, documented deviation.

Both are (32, 32, 4) nested tuples of the entries' integer Z[zeta_8]
coordinates (see cyclo), over denominator 1.

The degree tables below are consistent with the package numbering and
each other.  The erratum is decided by the reference data alone: zI is
central, so a covariant of degree d forces rho(zI) = z^d I, and
chi_i(zI) = dim(rho_i) * z^d0 with d0 the first degree in
SERIES_HEADS[i]; printed rows 29..31 break this rule, the permuted rows
keep it.
"""

from __future__ import annotations

from functools import lru_cache

from .cyclo import parse_zeta

CLASS_ORDERS = [1, 8, 4, 8, 2, 8, 4, 8,
                2, 8, 4, 8,
                4, 8, 4, 8, 4, 8, 4, 8,
                2, 8, 4, 8,
                24, 6, 24, 12, 24, 3, 24, 12]

CLASS_SIZES = [1] * 8 + [6] * 4 + [6] * 8 + [12] * 4 + [8] * 8

# 32 rows x 32 columns, whitespace-separated entries in the z^k notation,
# verbatim in the printed row order.
_CHARACTER_ROWS = [
    # chi_1
    "1 1 1 1 1 1 1 1  1 1 1 1  1 1 1 1 1 1 1 1  1 1 1 1  1 1 1 1 1 1 1 1",
    # chi_2
    "1 -1 1 -1 1 -1 1 -1  1 -1 1 -1  -1 1 -1 1 -1 1 -1 1  1 -1 1 -1  -1 1 -1 1 -1 1 -1 1",
    # chi_3
    "1 -z^2 -1 z^2 1 -z^2 -1 z^2  -1 z^2 1 -z^2  z^2 1 -z^2 -1 z^2 1 -z^2 -1  1 -z^2 -1 z^2  z^2 1 -z^2 -1 z^2 1 -z^2 -1",
    # chi_4
    "1 z^2 -1 -z^2 1 z^2 -1 -z^2  -1 -z^2 1 z^2  -z^2 1 z^2 -1 -z^2 1 z^2 -1  1 z^2 -1 -z^2  -z^2 1 z^2 -1 -z^2 1 z^2 -1",
    # chi_5
    "1 -1 1 -1 1 -1 1 -1  1 -1 1 -1  1 -1 1 -1 1 -1 1 -1  -1 1 -1 1  -1 1 -1 1 -1 1 -1 1",
    # chi_6
    "1 1 1 1 1 1 1 1  1 1 1 1  -1 -1 -1 -1 -1 -1 -1 -1  -1 -1 -1 -1  1 1 1 1 1 1 1 1",
    # chi_7
    "1 z^2 -1 -z^2 1 z^2 -1 -z^2  -1 -z^2 1 z^2  z^2 -1 -z^2 1 z^2 -1 -z^2 1  -1 -z^2 1 z^2  -z^2 1 z^2 -1 -z^2 1 z^2 -1",
    # chi_8
    "1 -z^2 -1 z^2 1 -z^2 -1 z^2  -1 z^2 1 -z^2  -z^2 -1 z^2 1 -z^2 -1 z^2 1  -1 z^2 1 -z^2  z^2 1 -z^2 -1 z^2 1 -z^2 -1",
    # chi_9
    "2 2z 2z^2 2z^3 -2 -2z -2z^2 -2z^3  0 0 0 0  z^2+1 z^3+z z^2-1 z^3-z -z^2-1 -z^3-z -z^2+1 -z^3+z  0 0 0 0  -z^3 1 z z^2 z^3 -1 -z -z^2",
    # chi_10
    "2 -2z^3 -2z^2 -2z -2 2z^3 2z^2 2z  0 0 0 0  z^2-1 z^3+z z^2+1 -z^3+z -z^2+1 -z^3-z -z^2-1 z^3-z  0 0 0 0  z 1 -z^3 -z^2 -z -1 z^3 z^2",
    # chi_11
    "2 -2z 2z^2 -2z^3 -2 2z -2z^2 2z^3  0 0 0 0  -z^2-1 z^3+z -z^2+1 z^3-z z^2+1 -z^3-z z^2-1 -z^3+z  0 0 0 0  z^3 1 -z z^2 -z^3 -1 z -z^2",
    # chi_12
    "2 2z^3 -2z^2 2z -2 -2z^3 2z^2 -2z  0 0 0 0  -z^2+1 z^3+z -z^2-1 -z^3+z z^2-1 -z^3-z z^2+1 z^3-z  0 0 0 0  -z 1 z^3 -z^2 z -1 -z^3 z^2",
    # chi_13
    "2 -2z 2z^2 -2z^3 -2 2z -2z^2 2z^3  0 0 0 0  z^2+1 -z^3-z z^2-1 -z^3+z -z^2-1 z^3+z -z^2+1 z^3-z  0 0 0 0  z^3 1 -z z^2 -z^3 -1 z -z^2",
    # chi_14
    "2 2z^3 -2z^2 2z -2 -2z^3 2z^2 -2z  0 0 0 0  z^2-1 -z^3-z z^2+1 z^3-z -z^2+1 z^3+z -z^2-1 -z^3+z  0 0 0 0  -z 1 z^3 -z^2 z -1 -z^3 z^2",
    # chi_15
    "2 2z 2z^2 2z^3 -2 -2z -2z^2 -2z^3  0 0 0 0  -z^2-1 -z^3-z -z^2+1 -z^3+z z^2+1 z^3+z z^2-1 z^3-z  0 0 0 0  -z^3 1 z z^2 z^3 -1 -z -z^2",
    # chi_16
    "2 -2z^3 -2z^2 -2z -2 2z^3 2z^2 2z  0 0 0 0  -z^2+1 -z^3-z -z^2-1 z^3-z z^2-1 z^3+z z^2+1 -z^3+z  0 0 0 0  z 1 -z^3 -z^2 -z -1 z^3 z^2",
    # chi_17
    "2 2 2 2 2 2 2 2  2 2 2 2  0 0 0 0 0 0 0 0  0 0 0 0  -1 -1 -1 -1 -1 -1 -1 -1",
    # chi_18
    "2 2z^2 -2 -2z^2 2 2z^2 -2 -2z^2  -2 -2z^2 2 2z^2  0 0 0 0 0 0 0 0  0 0 0 0  z^2 -1 -z^2 1 z^2 -1 -z^2 1",
    # chi_19
    "2 -2 2 -2 2 -2 2 -2  2 -2 2 -2  0 0 0 0 0 0 0 0  0 0 0 0  1 -1 1 -1 1 -1 1 -1",
    # chi_20
    "2 -2z^2 -2 2z^2 2 -2z^2 -2 2z^2  -2 2z^2 2 -2z^2  0 0 0 0 0 0 0 0  0 0 0 0  -z^2 -1 z^2 1 -z^2 -1 z^2 1",
    # chi_21
    "3 3z^2 -3 -3z^2 3 3z^2 -3 -3z^2  1 z^2 -1 -z^2  z^2 -1 -z^2 1 z^2 -1 -z^2 1  1 z^2 -1 -z^2  0 0 0 0 0 0 0 0",
    # chi_22
    "3 -3z^2 -3 3z^2 3 -3z^2 -3 3z^2  1 -z^2 -1 z^2  -z^2 -1 z^2 1 -z^2 -1 z^2 1  1 -z^2 -1 z^2  0 0 0 0 0 0 0 0",
    # chi_23
    "3 3 3 3 3 3 3 3  -1 -1 -1 -1  -1 -1 -1 -1 -1 -1 -1 -1  1 1 1 1  0 0 0 0 0 0 0 0",
    # chi_24
    "3 -3 3 -3 3 -3 3 -3  -1 1 -1 1  1 -1 1 -1 1 -1 1 -1  1 -1 1 -1  0 0 0 0 0 0 0 0",
    # chi_25
    "3 -3z^2 -3 3z^2 3 -3z^2 -3 3z^2  1 -z^2 -1 z^2  z^2 1 -z^2 -1 z^2 1 -z^2 -1  -1 z^2 1 -z^2  0 0 0 0 0 0 0 0",
    # chi_26
    "3 3z^2 -3 -3z^2 3 3z^2 -3 -3z^2  1 z^2 -1 -z^2  -z^2 1 z^2 -1 -z^2 1 z^2 -1  -1 -z^2 1 z^2  0 0 0 0 0 0 0 0",
    # chi_27
    "3 -3 3 -3 3 -3 3 -3  -1 1 -1 1  -1 1 -1 1 -1 1 -1 1  -1 1 -1 1  0 0 0 0 0 0 0 0",
    # chi_28
    "3 3 3 3 3 3 3 3  -1 -1 -1 -1  1 1 1 1 1 1 1 1  -1 -1 -1 -1  0 0 0 0 0 0 0 0",
    # printed row 29 (holds chi_30)
    "4 -4z^3 -4z^2 -4z -4 4z^3 4z^2 4z  0 0 0 0  0 0 0 0 0 0 0 0  0 0 0 0  -z -1 z^3 z^2 z 1 -z^3 -z^2",
    # printed row 30 (holds chi_31)
    "4 4z 4z^2 4z^3 -4 -4z -4z^2 -4z^3  0 0 0 0  0 0 0 0 0 0 0 0  0 0 0 0  z^3 -1 -z -z^2 -z^3 1 z z^2",
    # printed row 31 (holds chi_29)
    "4 4z^3 -4z^2 4z -4 -4z^3 4z^2 -4z  0 0 0 0  0 0 0 0 0 0 0 0  0 0 0 0  z -1 -z^3 z^2 -z 1 z^3 -z^2",
    # chi_32
    "4 -4z 4z^2 -4z^3 -4 4z -4z^2 4z^3  0 0 0 0  0 0 0 0 0 0 0 0  0 0 0 0  -z^3 -1 z -z^2 z^3 1 -z z^2",
]


# Printed row -> package representation index whose character the row
# actually holds.  Identity except on the relabeled rows 29..31.
CHARACTER_ROW_SOURCE = {i: i for i in range(1, 33)}
CHARACTER_ROW_SOURCE.update({29: 30, 30: 31, 31: 29})


@lru_cache(maxsize=1)
def printed_character_table() -> tuple:
    """The reference character table in the printed row order (rows 29..31
    hold chi_30, chi_31, chi_29): (32, 32, 4) integer coordinates over
    denominator 1 as nested tuples, parsed once."""
    rows = tuple(tuple(parse_zeta(tok) for tok in line.split()) for line in _CHARACTER_ROWS)
    for row in rows:
        if len(row) != 32:
            raise ValueError(f"reference row has {len(row)} entries")
    return rows


@lru_cache(maxsize=1)
def character_table() -> tuple:
    """The reference character table in the package numbering: row i - 1
    holds chi_i, i.e. the printed row r with CHARACTER_ROW_SOURCE[r] == i.
    (32, 32, 4) nested tuples of coordinates over denominator 1."""
    source = {src: row for row, src in CHARACTER_ROW_SOURCE.items()}
    return tuple(printed_character_table()[source[i] - 1] for i in range(1, 33))


# Octahedral-form exponents (a, b) of the rank-1 generators gamma^a delta^b
# (representations 1..8); their degrees are GENERATOR_DEGREES[1..8].
LINEAR_GENERATOR_POWERS = {1: (0, 0), 2: (2, 0), 3: (1, 0), 4: (3, 0),
                           5: (0, 1), 6: (2, 1), 7: (1, 1), 8: (3, 1)}

# Generator degree multisets of the covariant modules, per representation.
GENERATOR_DEGREES = {
    1: (0,), 2: (12,), 3: (6,), 4: (18,),
    5: (12,), 6: (24,), 7: (18,), 8: (30,),
    9: (1, 17), 10: (7, 23), 11: (13, 29), 12: (11, 19),
    13: (5, 13), 14: (11, 19), 15: (17, 25), 16: (7, 23),
    17: (8, 16), 18: (10, 26), 19: (4, 20), 20: (14, 22),
    21: (2, 10, 18), 22: (6, 14, 22), 23: (8, 16, 24), 24: (4, 12, 20),
    25: (6, 14, 22), 26: (10, 18, 26), 27: (12, 20, 28), 28: (8, 16, 24),
    29: (3, 11, 19, 27), 30: (7, 15, 15, 23), 31: (9, 9, 17, 25), 32: (5, 13, 21, 21),
}

# Determinant factorization exponents: det of the generator matrix equals a
# nonzero constant times delta^e gamma^k.
DET_EXPONENTS = {
    9: (1, 1), 10: (1, 3), 11: (1, 5), 12: (1, 3),
    13: (1, 1), 14: (1, 3), 15: (1, 5), 16: (1, 3),
    17: (1, 2), 18: (1, 4), 19: (1, 2), 20: (1, 4),
    21: (1, 3), 22: (1, 5), 23: (1, 6), 24: (1, 4),
    25: (2, 3), 26: (2, 5), 27: (2, 6), 28: (2, 4),
    29: (2, 6), 30: (2, 6), 31: (2, 6), 32: (2, 6),
}

# Leading terms of the Hilbert series of each covariant module, as published
# (five terms per representation).
SERIES_HEADS = {
    1: [(0, 1), (8, 1), (16, 1), (24, 2), (32, 2)],
    2: [(12, 1), (20, 1), (28, 1), (36, 2), (44, 2)],
    3: [(6, 1), (14, 1), (22, 1), (30, 2), (38, 2)],
    4: [(18, 1), (26, 1), (34, 1), (42, 2), (50, 2)],
    5: [(12, 1), (20, 1), (28, 1), (36, 2), (44, 2)],
    6: [(24, 1), (32, 1), (40, 1), (48, 2), (56, 2)],
    7: [(18, 1), (26, 1), (34, 1), (42, 2), (50, 2)],
    8: [(30, 1), (38, 1), (46, 1), (54, 2), (62, 2)],
    9: [(1, 1), (9, 1), (17, 2), (25, 3), (33, 3)],
    10: [(7, 1), (15, 1), (23, 2), (31, 3), (39, 3)],
    11: [(13, 1), (21, 1), (29, 2), (37, 3), (45, 3)],
    12: [(11, 1), (19, 2), (27, 2), (35, 3), (43, 4)],
    13: [(5, 1), (13, 2), (21, 2), (29, 3), (37, 4)],
    14: [(11, 1), (19, 2), (27, 2), (35, 3), (43, 4)],
    15: [(17, 1), (25, 2), (33, 2), (41, 3), (49, 4)],
    16: [(7, 1), (15, 1), (23, 2), (31, 3), (39, 3)],
    17: [(8, 1), (16, 2), (24, 2), (32, 3), (40, 4)],
    18: [(10, 1), (18, 1), (26, 2), (34, 3), (42, 3)],
    19: [(4, 1), (12, 1), (20, 2), (28, 3), (36, 3)],
    20: [(14, 1), (22, 2), (30, 2), (38, 3), (46, 4)],
    21: [(2, 1), (10, 2), (18, 3), (26, 4), (34, 5)],
    22: [(6, 1), (14, 2), (22, 3), (30, 4), (38, 5)],
    23: [(8, 1), (16, 2), (24, 3), (32, 4), (40, 5)],
    24: [(4, 1), (12, 2), (20, 3), (28, 4), (36, 5)],
    25: [(6, 1), (14, 2), (22, 3), (30, 4), (38, 5)],
    26: [(10, 1), (18, 2), (26, 3), (34, 4), (42, 5)],
    27: [(12, 1), (20, 2), (28, 3), (36, 4), (44, 5)],
    28: [(8, 1), (16, 2), (24, 3), (32, 4), (40, 5)],
    29: [(3, 1), (11, 2), (19, 3), (27, 5), (35, 6)],
    30: [(7, 1), (15, 3), (23, 4), (31, 5), (39, 7)],
    31: [(9, 2), (17, 3), (25, 4), (33, 6), (41, 7)],
    32: [(5, 1), (13, 2), (21, 4), (29, 5), (37, 6)],
}

# Symmetry structure of the covariant generators under the coordinate swap
# tau: (x, y) -> (y, x).  For the rank-3 modules the generators can be put
# in the form (f, g, s * f o tau) with g (skew-)symmetric of sign s; for the
# rank-4 modules in the form (f, g, s * g o tau, s * f o tau).
TAU_SIGNS = {
    21: 1, 22: 1, 25: 1, 26: 1,
    23: -1, 24: -1, 27: -1, 28: -1,
    29: 1, 30: 1,
    31: -1, 32: -1,
}
