"""Self-tests of the benchmark.  Run from the root of the repository:

    python3 -m pytest -q perfbench

The smoke test runs one cold pass of cli_queries (about half a minute).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _first(workload, seed, n=3):
    return list(itertools.islice(workloads.passes(workload, seed), n))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seeded_passes_are_deterministic(workload):
    assert _first(workload, 7) == _first(workload, 7)
    if workload != "verify_cold":
        assert _first(workload, 7) != _first(workload, 8)


def test_deep_slices_stay_in_their_range_and_are_nonzero():
    for p in _first("deep_slices", 3, 20):
        ranks = []
        for argv in p:
            r, d = int(argv[2]), int(argv[4])
            assert 54 < d <= 70 and oracle.slice_dim(r, d) > 0
            ranks.append(oracle.rank(r))
        assert ranks == list(workloads.DEEP_RANKS) * 2


def test_dimension_oracle_matches_reference_tables():
    from g9cov import reference
    assert oracle.GENERATOR_DEGREES == reference.GENERATOR_DEGREES
    assert oracle.DET_EXPONENTS == reference.DET_EXPONENTS
    assert oracle.CLASS_ORDERS == reference.CLASS_ORDERS
    assert oracle.CLASS_SIZES == reference.CLASS_SIZES
    for rep, head in reference.SERIES_HEADS.items():
        assert sorted(oracle.series(rep, 64).items())[:len(head)] == head, rep


def test_series_text_round_trip():
    assert oracle.parse_series_text("1 + t + 2t^8 + t^16") == {0: 1, 1: 1, 8: 2, 16: 1}
    assert oracle.parse_series_text("0") == {}


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_arithmetic_on_a_nested_trace():
    clock = FakeClock()
    t = spans.Tracer(clock)
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and c [5, 8]; then c [12, 13]
    for at, op, name in [(0, "in", "a"), (1, "in", "b"), (2, "in", "c"), (3, "out", None),
                         (4, "out", None), (5, "in", "c"), (8, "out", None),
                         (10, "out", None), (12, "in", "c"), (13, "out", None)]:
        clock.now = at
        t.enter(name) if op == "in" else t.exit()
    assert t.self_s == {"a": 4.0, "b": 2.0, "c": 5.0}
    assert t.calls == {"a": 1, "b": 1, "c": 3}
    assert t.top_s == 11.0 == t.self_total()


def test_every_span_has_a_metric_and_benchmark_json_lists_them():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"] for m in bench["per_layer"]}
    emitted = set(spans.layer_metrics(spans.Tracer(), 1))
    emitted |= {"trace.wall_s", "trace.unattributed_s", "trace.overhead_frac"}
    assert listed == emitted
    assert all(m["unit"] == run.unit_of(m["name"]) for m in bench["per_layer"])
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS


def _outputs(commands):
    from g9cov import cli
    out = []
    for argv in commands:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
        out.append((argv, code, buf.getvalue().encode()))
    return out


def test_oracle_rejects_corrupted_outputs():
    digests = oracle.load_digests()
    cmds = [("covariants", "--rep", "21", "--degree", "34", "--format", "text"),
            ("molien", "--rep", "9", "--terms", "40", "--numerator", "--format", "text"),
            ("generators", "--rep", "29", "--format", "json"),
            ("chartable", "--format", "csv")]
    for argv, code, data in _outputs(cmds):
        assert oracle.check(argv, code, data, digests) is None, argv
        assert oracle.check(argv, 1, data, digests) is not None
        assert oracle.check(argv, code, data[: len(data) // 2], digests) is not None
    argv, code, data = _outputs(cmds[:1])[0]
    wrong_dim = data.replace(b"dimension 5", b"dimension 4", 1)
    assert wrong_dim != data and oracle.check(argv, code, wrong_dim, {}) is not None
    chart_argv, code, chart = _outputs([("chartable", "--format", "csv")])[0]
    flipped = chart.replace(b"z^3", b"z^5", 1)
    assert oracle.check(chart_argv, code, flipped, {}) is None     # shape still fine
    assert oracle.check(chart_argv, code, flipped, digests) is not None


def test_corrupted_command_counts_as_failed(monkeypatch):
    """cold_run counts an injected wrong output; fake children keep it fast."""
    from g9cov import cli
    calls = []

    def fake_child(args, timeout):
        if args[:2] != ["-m", "g9cov.cli"] or args[2] == "--help":
            return run.Child(0.01, 0.01, 1.0, 0, b"", b"")
        calls.append(args)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(args[2:])
        data = buf.getvalue().encode()
        if args[2] == "covariants":
            data = data.replace(b"dimension", b"dimension 1 +", 1)
        return run.Child(0.02, 0.02, 1.0, code, data, b"")

    monkeypatch.setattr(run, "run_child", fake_child)
    res = run.cold_run("cli_queries", 0, 0, oracle.load_digests())
    errors = [o["error"] for o in res["ops"]]
    assert len(calls) == 5
    assert [e is not None for e in errors] == [False, False, False, True, False]


def test_smoke_pass_has_no_failures():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload",
                           "cli_queries", "--seed", "0", "--seconds", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 5
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
