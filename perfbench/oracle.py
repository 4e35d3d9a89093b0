"""Output oracle for the benchmark, independent of the code under test.

Every expected value here comes from published tables frozen below, not
from g9cov.  The covariant module of rho_R is free over C[theta, phi]
(deg theta = 8, deg phi = 24) on generators of the degrees listed in
GENERATOR_DEGREES[R], so the dimension of its degree-D slice is

    sum over generator degrees g of #{(a, b) >= 0 : 8a + 24b = D - g}

and the Molien series, its numerator, the generator degrees and every
slice dimension follow from that one table.  On top of the structural
checks, an output whose command line is in digests.json must match the
sha256 recorded there byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import Counter
from pathlib import Path

# Generator degree multisets per representation (the published table).
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

# Determinant exponents (e, k): det[generators] = c * delta^e * gamma^k.
DET_EXPONENTS = {
    9: (1, 1), 10: (1, 3), 11: (1, 5), 12: (1, 3),
    13: (1, 1), 14: (1, 3), 15: (1, 5), 16: (1, 3),
    17: (1, 2), 18: (1, 4), 19: (1, 2), 20: (1, 4),
    21: (1, 3), 22: (1, 5), 23: (1, 6), 24: (1, 4),
    25: (2, 3), 26: (2, 5), 27: (2, 6), 28: (2, 4),
    29: (2, 6), 30: (2, 6), 31: (2, 6), 32: (2, 6),
}

CLASS_ORDERS = [1, 8, 4, 8, 2, 8, 4, 8, 2, 8, 4, 8,
                4, 8, 4, 8, 4, 8, 4, 8, 2, 8, 4, 8,
                24, 6, 24, 12, 24, 3, 24, 12]
CLASS_SIZES = [1] * 8 + [6] * 4 + [6] * 8 + [12] * 4 + [8] * 8

VERIFY_CHECKS = ["group", "census", "homomorphism", "chartable", "molien",
                 "crosscheck", "generators", "linear", "freeness",
                 "determinants", "tau", "invariants"]

DIGESTS_PATH = Path(__file__).with_name("digests.json")


def rank(rep: int) -> int:
    return len(GENERATOR_DEGREES[rep])


def slice_dim(rep: int, degree: int) -> int:
    """Dimension of the degree-`degree` slice of the covariant module of rho_rep."""
    total = 0
    for g in GENERATOR_DEGREES[rep]:
        n = degree - g
        if n >= 0 and n % 8 == 0:
            total += n // 24 + 1      # b = 0..n//24, then a = (n - 24b) / 8
    return total


def series(rep: int, terms: int) -> dict[int, int]:
    """Nonzero Hilbert-series coefficients of degree 0..terms."""
    out = {}
    for d in range(terms + 1):
        c = slice_dim(rep, d)
        if c:
            out[d] = c
    return out


def numerator(rep: int) -> dict[int, int]:
    return dict(Counter(GENERATOR_DEGREES[rep]))


def key(argv) -> str:
    return " ".join(argv)


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text())


class Mismatch(Exception):
    """The output disagrees with the oracle."""


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise Mismatch(msg)


_TERM = re.compile(r"^(\d*)t(?:\^(\d+))?$")


def parse_series_text(text: str) -> dict[int, int]:
    """Inverse of the CLI's series rendering: '1 + 2t^8 + t^16' -> {0: 1, 8: 2, 16: 1}."""
    if text == "0":
        return {}
    out = {}
    for tok in text.split(" + "):
        if tok.isdigit():
            d, c = 0, int(tok)
        else:
            m = _TERM.match(tok)
            _expect(m is not None, f"unparsable series term {tok!r}")
            c = int(m.group(1)) if m.group(1) else 1
            d = int(m.group(2)) if m.group(2) else 1
        _expect(d not in out, f"degree {d} repeated")
        out[d] = c
    return out


def _opt(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _check_group(argv, out: str) -> None:
    if _opt(argv, "--format", "text") == "json":
        data = json.loads(out)
        _expect(data["order"] == 192, "group order")
        _expect(len(data["elements"]) == 192, "element count")
        _expect([c["ord"] for c in data["classes"]] == CLASS_ORDERS, "class orders")
        _expect([c["size"] for c in data["classes"]] == CLASS_SIZES, "class sizes")
        return
    lines = out.splitlines()
    _expect(lines[0] == "group order 192, 32 conjugacy classes", "group header")
    rows = [ln.split() for ln in lines[3:]]
    _expect(len(rows) == 32, f"{len(rows)} class rows")
    _expect([int(r[-2]) for r in rows] == CLASS_ORDERS, "class orders")
    _expect([int(r[-1]) for r in rows] == CLASS_SIZES, "class sizes")


def _check_chartable(argv, out: str) -> None:
    dims = [rank(r) for r in range(1, 33)]
    fmt = _opt(argv, "--format", "csv")
    if fmt == "json":
        data = json.loads(out)
        _expect(data["ord"] == CLASS_ORDERS and data["sizes"] == CLASS_SIZES,
                "ord / |C| rows")
        rows = [data["rows"][f"chi_{i}"] for i in range(1, 33)]
    elif fmt == "csv":
        lines = out.splitlines()
        _expect(lines[1] == "ord," + ",".join(map(str, CLASS_ORDERS)), "ord row")
        _expect(lines[2] == "|C|," + ",".join(map(str, CLASS_SIZES)), "|C| row")
        rows = [ln.split(",")[1:] for ln in lines[3:]]
    else:
        rows = [ln.split(" & ")[1:] for ln in out.splitlines()
                if ln.startswith("\\chi_")]
        _expect(len(rows) == 64, f"{len(rows)} latex chi rows")
        rows = [a + b for a, b in zip(rows[:32], rows[32:])]
        rows = [[e.removesuffix("\\\\") for e in r] for r in rows]
    _expect(len(rows) == 32 and all(len(r) == 32 for r in rows), "table shape")
    _expect([int(r[0]) for r in rows] == dims, "chi(1) column is not the rank list")


def _check_molien(argv, out: str) -> None:
    rep = _opt(argv, "--rep")
    reps = list(range(1, 33)) if rep == "all" else [int(rep)]
    terms = int(_opt(argv, "--terms", "64"))
    if _opt(argv, "--format", "text") == "json":
        data = json.loads(out)
        blocks = data if rep == "all" else [data]
        _expect(len(blocks) == len(reps), "block count")
        for r, b in zip(reps, blocks):
            _expect(b["rep"] == r, "rep order")
            _expect({d: c for d, c in b["terms"]} == series(r, terms), f"rho_{r} series")
            _expect({d: c for d, c in b["numerator"]} == numerator(r), f"rho_{r} numerator")
        return
    lines = out.splitlines()
    want_num = "--numerator" in argv
    _expect(len(lines) == len(reps) * (2 if want_num else 1), "line count")
    step = 2 if want_num else 1
    for i, r in enumerate(reps):
        head, _, body = lines[i * step].partition(": ")
        _expect(head == f"rho_{r}", f"block {i} is {head}")
        _expect(parse_series_text(body) == series(r, terms), f"rho_{r} series")
        if want_num:
            label, _, num = lines[i * step + 1].partition(": ")
            _expect(label == "  numerator", "numerator label")
            _expect(parse_series_text(num) == numerator(r), f"rho_{r} numerator")


def _check_covariants(argv, out: str) -> None:
    rep, degree = int(_opt(argv, "--rep")), int(_opt(argv, "--degree"))
    want = slice_dim(rep, degree)
    if _opt(argv, "--format", "text") == "json":
        data = json.loads(out)
        _expect((data["rep"], data["degree"]) == (rep, degree), "header")
        _expect(data["dim"] == want == len(data["basis"]),
                f"dimension {data['dim']}, oracle {want}")
        _expect(all(len(v) == rank(rep) for v in data["basis"]), "component count")
        return
    lines = out.splitlines()
    _expect(lines[0] == f"rho_{rep} degree {degree}: dimension {want}",
            f"header {lines[0]!r}, oracle dimension {want}")
    _expect(len(lines) == 1 + want, f"{len(lines) - 1} basis lines, oracle {want}")


def _check_generators(argv, out: str) -> None:
    rep = int(_opt(argv, "--rep"))
    want = sorted(GENERATOR_DEGREES[rep])
    det = DET_EXPONENTS.get(rep)
    if _opt(argv, "--format", "text") == "json":
        data = json.loads(out)
        _expect(data["degrees"] == want, f"degrees {data['degrees']}, oracle {want}")
        _expect([g["degree"] for g in data["generators"]] == want, "generator degrees")
        got_det = None if data["det"] is None else (data["det"]["e"], data["det"]["k"])
        _expect(got_det == det, f"det exponents {got_det}, oracle {det}")
        return
    lines = out.splitlines()
    _expect(lines[0] == f"rho_{rep}: {len(want)} generators, degrees {want}",
            f"header {lines[0]!r}")
    _expect([int(ln.split()[1].rstrip(":")) for ln in lines[1:1 + len(want)]] == want,
            "generator lines")
    if det is None:
        _expect(len(lines) == 1 + len(want), "unexpected det line")
    else:
        _expect(re.fullmatch(rf"  det = \(.+\) \* delta\^{det[0]} \* gamma\^{det[1]}",
                             lines[-1]) is not None, f"det line {lines[-1]!r}")


def _check_verify(argv, out: str) -> None:
    lines = out.splitlines()
    names = [ln.split(":")[0].removeprefix("PASS ") for ln in lines[:-1]]
    _expect(all(ln.startswith("PASS ") for ln in lines[:-1]), "a check did not pass")
    _expect(names == VERIFY_CHECKS, f"checks {names}")
    _expect(lines[-1] == "all checks passed", "missing 'all checks passed'")


_CHECKERS = {"group": _check_group, "chartable": _check_chartable,
             "molien": _check_molien, "covariants": _check_covariants,
             "generators": _check_generators, "verify": _check_verify}


def check(argv, returncode: int, stdout: bytes, digests: dict[str, str]) -> str | None:
    """None when the command's exit code and output are right, else the reason."""
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        _CHECKERS[argv[0]](argv, stdout.decode())
    except Mismatch as exc:
        return f"oracle: {exc}"
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return f"oracle: malformed output ({type(exc).__name__}: {exc})"
    want = digests.get(key(argv))
    if want is not None and hashlib.sha256(stdout).hexdigest() != want:
        return "stdout sha256 differs from the recorded digest"
    return None
