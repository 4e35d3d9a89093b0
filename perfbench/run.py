"""Benchmark of the g9cov command-line program.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload verify_cold --seed 1 --seconds 20 --trace 0

--trace 0 times cold `python -m g9cov.cli` processes (PYTHONPATH=src), one
at a time in a closed loop: each command starts after the previous one has
exited.  It runs passes of the workload until --seconds have elapsed (at
least one pass), checks every output against oracle.py, and reports the
end-to-end metrics.  --trace 1 runs the same passes in-process, once
untraced and once with spans.py wrapping each module's public functions,
and reports the per-layer metrics.  The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}; a fuller record,
with the environment and every command, goes to .perfbench_out/.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 3          # setup_s is the median of this many cold set-ups
RUN_BUDGET_S = 170      # a run must end within 180 s
SETUP_CODE = "from g9cov.session import get_session; get_session()"

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s",
                    "op_tail_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark cannot measure: no source tree, or set-up fails."""


@dataclass
class Child:
    wall: float
    cpu: float
    rss_mb: float
    returncode: int
    stdout: bytes
    stderr: bytes


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # users run with a bytecode cache, which the warm-up command fills
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(args: list[str], timeout: float) -> Child:
    """Run `python <args>` to completion; wall, CPU and peak RSS from wait4."""
    out_path, err_path = OUT / "child.stdout", OUT / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        reaped = []
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=child_env(),
                                stdout=out, stderr=err)
        waiter = threading.Thread(target=lambda: reaped.append(os.wait4(proc.pid, 0)))
        waiter.start()
        waiter.join(timeout)
        if waiter.is_alive():
            os.kill(proc.pid, signal.SIGKILL)   # not reaped yet, so the pid is ours
            waiter.join()
        wall = time.perf_counter() - t0
    _, status, usage = reaped[0]
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                 proc.returncode, out_path.read_bytes(), err_path.read_bytes())


def tail(values: list[float]) -> tuple[float, str]:
    """Highest percentile with at least 10 samples beyond it, with its label."""
    n = len(values)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return statistics.quantiles(values, n=100, method="inclusive")[p - 1], \
                f"p{p}, n={n}"
    why = "" if n >= 20 else ": too few samples for a higher percentile"
    return statistics.median(values), f"p50, n={n}{why}"


def environment() -> dict:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy, "git_sha": sha, "loadavg_before": os.getloadavg()}


# -- cold processes (--trace 0) --------------------------------------------------


def cold_run(workload: str, seed: int, seconds: float, digests: dict) -> dict:
    deadline = time.perf_counter() + RUN_BUDGET_S

    def budget() -> float:
        return max(5.0, deadline - time.perf_counter())

    # the first command compiles __pycache__, which users pay once: not timed
    warm = run_child(["-m", "g9cov.cli", "--help"], budget())
    if warm.returncode:
        raise BenchError(f"warm-up failed: {warm.stderr.decode()[-500:]}")
    setups = []
    for _ in range(SETUP_RUNS):
        c = run_child(["-c", SETUP_CODE], budget())
        if c.returncode:
            raise BenchError(f"get_session() failed: {c.stderr.decode()[-500:]}")
        setups.append(c.wall)

    ops, pass_walls, pass_cpus = [], [], []
    t0 = time.perf_counter()
    for commands in workloads.passes(workload, seed):
        wall = cpu = 0.0
        for argv in commands:
            c = run_child(["-m", "g9cov.cli", *argv], budget())
            error = oracle.check(argv, c.returncode, c.stdout, digests)
            if error and c.stderr:
                error += " | stderr: " + c.stderr.decode(errors="replace")[-300:]
            ops.append({"argv": list(argv), "wall_s": c.wall, "cpu_s": c.cpu,
                        "rss_mb": c.rss_mb, "error": error})
            wall += c.wall
            cpu += c.cpu
        pass_walls.append(wall)
        pass_cpus.append(cpu)
        now = time.perf_counter()
        if now - t0 >= seconds or now + wall > deadline:
            break

    walls = [o["wall_s"] for o in ops]
    tail_value, tail_label = tail(walls)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(pass_walls),
        "op_p50_s": statistics.median(walls),
        "op_tail_s": tail_value,
        "cpu_s": statistics.median(pass_cpus),
        "peak_rss_mb": max(o["rss_mb"] for o in ops),
    }
    notes = {
        "setup_s": f"median of {SETUP_RUNS} cold get_session() processes",
        "wall_s": f"median over {len(pass_walls)} passes of summed command wall time",
        "op_p50_s": f"median of {len(walls)} commands",
        "op_tail_s": tail_label,
        "cpu_s": f"median over {len(pass_cpus)} passes of child user+sys time",
        "peak_rss_mb": f"max over {len(ops)} commands",
    }
    return {"metrics": {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()},
            "notes": notes, "ops": ops, "setups_s": setups}


# -- in-process traced run (--trace 1) ---------------------------------------------


def unit_of(name: str) -> str:
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name == "trace.overhead_frac":
        return "frac"
    if name == "covariants.rref_per_slice":
        return "calls/slice"
    return "count"


def traced_run(workload: str, seed: int, seconds: float, digests: dict) -> dict:
    sys.path.insert(0, str(SRC))
    from g9cov import cli, session
    import spans

    def run_pass(commands, tracer, ops):
        wall = 0.0
        for argv in commands:
            session.get_session.cache_clear()      # every command pays set-up
            buf = io.StringIO()
            error = None
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                if tracer:
                    tracer.enter("cli.main")
                try:
                    code = cli.main(list(argv))
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 2
                except Exception as exc:  # counted as a failed command
                    code, error = None, f"raised {type(exc).__name__}: {exc}"
                finally:
                    if tracer:
                        tracer.exit()
            dt = time.perf_counter() - t0
            wall += dt
            error = error or oracle.check(argv, code, buf.getvalue().encode(), digests)
            ops.append({"argv": list(argv), "traced": tracer is not None,
                        "wall_s": dt, "error": error})
        return wall

    tracer = spans.Tracer()
    ops: list[dict] = []
    untraced = traced = 0.0
    n = 0
    deadline = time.perf_counter() + RUN_BUDGET_S
    t0 = time.perf_counter()
    for commands in workloads.passes(workload, seed):
        untraced += run_pass(commands, None, ops)
        undo = spans.instrument(tracer)
        try:
            traced += run_pass(commands, tracer, ops)
        finally:
            undo()
        n += 1
        now = time.perf_counter()
        if now - t0 >= seconds or now + (untraced + traced) / n > deadline:
            break

    covered = tracer.top_s
    if abs(tracer.self_total() - covered) > 1e-6 * max(1.0, covered):
        raise BenchError(f"self times sum to {tracer.self_total()}, spans cover {covered}")
    layer = spans.layer_metrics(tracer, n)
    layer["trace.wall_s"] = traced / n
    layer["trace.unattributed_s"] = (traced - covered) / n
    layer["trace.overhead_frac"] = traced / untraced - 1.0
    OUT.joinpath(f"trace-{workload}-seed{seed}.json").write_text(json.dumps(
        {"passes": n, "self_s": tracer.self_s, "total_s": tracer.total_s,
         "calls": tracer.calls, "slices": tracer.slices}, indent=1))
    notes = {"trace.wall_s": f"per pass, {n} traced passes; self times "
             f"{tracer.self_total() / n:.4f} s + unattributed "
             f"{layer['trace.unattributed_s']:.4f} s",
             "trace.overhead_frac": f"traced {traced:.3f} s vs untraced {untraced:.3f} s"}
    return {"metrics": {k: (v, unit_of(k)) for k, v in layer.items()},
            "notes": notes, "ops": ops}


# -- entry point --------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "g9cov" / "cli.py").is_file():
        print(f"error: no g9cov source tree at {SRC / 'g9cov'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = environment()
    digests = oracle.load_digests()
    run = traced_run if args.trace else cold_run
    try:
        result = run(args.workload, args.seed, args.seconds, digests)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env["loadavg_after"] = os.getloadavg()

    ops = result["ops"]
    failed = [o for o in ops if o["error"]]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "failed_frac": len(failed) / len(ops),
              **result}
    OUT.joinpath(f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("env " + json.dumps(env))
    for o in failed:
        print(f"FAILED {oracle.key(o['argv'])}: {o['error']}")
    for name, (value, unit) in result["metrics"].items():
        note = result["notes"].get(name)
        print(f"{name:32} {value:14.6f} {unit}" + (f"   ({note})" if note else ""))
    print(f"{'failed_frac':32} {len(failed) / len(ops):14.6f} frac   "
          f"({len(failed)} of {len(ops)} commands)")
    print(json.dumps({
        "correct": not failed, "attempted": len(ops), "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
