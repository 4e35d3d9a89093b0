"""Seeded workloads: each is an endless sequence of passes, a pass a list of commands.

A command is the argv of one `python -m g9cov.cli` invocation.  The same
(workload, seed) always yields the same passes.  Each pass holds the same
kinds of command in the same order and the seed only picks their
parameters, so pass cost varies little from seed to seed.

* verify_cold  - one `verify`: the certifier's whole job, cold.
* cli_queries  - one each of group, chartable, molien, covariants
                 (degree <= 40) and generators; the session build dominates.
* deep_slices  - `covariants` slices above verify's sweep degree 54, one
                 per rank 2, 3, 4 in each of the degree windows 55..62 and
                 63..70 (the second crosses the Molien cutoff 64): one large
                 elimination each, no cache reuse.  The central character
                 fixes the degree mod 8, so the seed picks the rep and the
                 window fixes the degree; only nonzero slices are drawn.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterator

from oracle import rank, slice_dim

WORKLOADS = ("verify_cold", "cli_queries", "deep_slices")

# nonzero (rep, degree) slices that cli_queries and deep_slices draw from
LOW_SLICES = [(r, d) for r in range(1, 33) for d in range(0, 41) if slice_dim(r, d)]
DEEP_WINDOWS = (range(55, 63), range(63, 71))
DEEP_RANKS = (2, 3, 4)


def _verify_pass(rng: random.Random) -> list[tuple[str, ...]]:
    return [("verify",)]


def _cli_pass(rng: random.Random) -> list[tuple[str, ...]]:
    rep = "all" if rng.random() < 0.25 else str(rng.randint(1, 32))
    terms = rng.randint(1, 64) if rng.random() < 0.5 else rng.randint(65, 128)
    molien = ["molien", "--rep", rep, "--terms", str(terms)]
    if rng.random() < 0.5:
        molien.append("--numerator")
    molien += ["--format", rng.choice(["text", "json"])]
    r, d = rng.choice(LOW_SLICES)
    return [
        ("group", "--format", rng.choice(["text", "json"])),
        ("chartable", "--format", rng.choice(["csv", "json", "latex"])),
        tuple(molien),
        ("covariants", "--rep", str(r), "--degree", str(d),
         "--format", rng.choice(["text", "json"])),
        ("generators", "--rep", str(rng.randint(1, 32)),
         "--format", rng.choice(["text", "json"])),
    ]


def _deep_pass(rng: random.Random) -> list[tuple[str, ...]]:
    ops = []
    for window, k in itertools.product(DEEP_WINDOWS, DEEP_RANKS):
        r = rng.choice([r for r in range(1, 33) if rank(r) == k])
        (d,) = [d for d in window if slice_dim(r, d)]
        ops.append(("covariants", "--rep", str(r), "--degree", str(d),
                    "--format", rng.choice(["text", "json"])))
    return ops


_PASS = {"verify_cold": _verify_pass, "cli_queries": _cli_pass,
         "deep_slices": _deep_pass}


def passes(workload: str, seed: int) -> Iterator[list[tuple[str, ...]]]:
    rng = random.Random(f"{workload}/{seed}")
    make = _PASS[workload]
    while True:
        yield make(rng)
