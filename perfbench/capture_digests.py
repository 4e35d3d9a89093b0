"""Record the sha256 of the CLI's stdout for the commands the oracle pins.

Run from the root of the repository, on the commit whose outputs are the
reference:

    python3 perfbench/capture_digests.py

It covers every variant of the finite command families (group, chartable,
generators of each representation, verify) and the first passes of the
shipped seed (0) of cli_queries and deep_slices, and writes digests.json
beside this file.  The outputs are computed in-process; the benchmark
compares them with the stdout of cold processes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402
from g9cov import cli  # noqa: E402

SHIPPED_SEED = 0
SEED_PASSES = 4


def commands() -> list[tuple[str, ...]]:
    out = [("group", "--format", f) for f in ("text", "json")]
    out += [("chartable", "--format", f) for f in ("csv", "json", "latex")]
    out += [("generators", "--rep", str(r), "--format", f)
            for r in range(1, 33) for f in ("text", "json")]
    for w in ("cli_queries", "deep_slices"):
        for p in itertools.islice(workloads.passes(w, SHIPPED_SEED), SEED_PASSES):
            out += p
    out.append(("verify",))
    return list(dict.fromkeys(out))


def main() -> int:
    digests = {}
    for argv in commands():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
        data = buf.getvalue().encode()
        error = oracle.check(argv, code, data, {})
        if error:
            print(f"{oracle.key(argv)}: {error}", file=sys.stderr)
            return 1
        digests[oracle.key(argv)] = hashlib.sha256(data).hexdigest()
    oracle.DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {oracle.DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
