import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import g9cov
from g9cov import cli, covariants, cyclo, molien, reps, session
from g9cov.session import get_session
from oracles import decode_rows, rep_matrices_exact

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _run(fresh, argv, capsys, monkeypatch):
    monkeypatch.setattr(cli, "get_session", lambda: fresh)
    assert cli.main(argv) == 0
    capsys.readouterr()


def _refuse_images(monkeypatch):
    # the images of all 192 elements: rep_matrices under each of its names
    def refuse(*args):
        raise AssertionError("a command called rep_matrices")
    for owner in (reps, session, covariants, molien):
        monkeypatch.setattr(owner, "rep_matrices", refuse)


def test_session_builds_images_on_first_read(capsys, monkeypatch):
    # the session builds its traces on first read, from five images per
    # rep: neither the build, nor the group listing, nor the traces read
    # the images of all 192 elements
    _refuse_images(monkeypatch)
    fresh = get_session.__wrapped__()
    assert "traces" not in vars(fresh)
    _run(fresh, ["group"], capsys, monkeypatch)
    assert "traces" not in vars(fresh)
    built = {r.rid: rep_matrices_exact(r, fresh.table) for r in fresh.reps}
    at_reference = [[built[r.rid][i].trace() for i in fresh.table.class_reps]
                    for r in fresh.reps]
    assert decode_rows(fresh.traces) == at_reference


def test_one_rep_queries_build_only_that_rep(capsys, monkeypatch):
    # a slice and a Molien series read the generator images and the image
    # of zI, and build no image of the BFS at all
    _refuse_images(monkeypatch)
    fresh = get_session.__wrapped__()
    fresh.engine.slice(29, 3)
    assert list(fresh.engine._symmetries) == [29]
    fresh = get_session.__wrapped__()
    _run(fresh, ["molien", "--rep", "29"], capsys, monkeypatch)
    assert list(fresh.engine._molien) == [29]


def test_queries_build_no_image_of_the_bfs(capsys, monkeypatch):
    # a cold deep query once built all 192 images of rho_1 to read the
    # central scalar; now no command calls rep_matrices under any of its
    # names, verify included
    _refuse_images(monkeypatch)
    fresh = get_session.__wrapped__()
    for argv in (["covariants", "--rep", "22", "--degree", "30"],
                 ["covariants", "--rep", "30", "--degree", "63"],
                 ["generators", "--rep", "29"], ["chartable"], ["molien", "--rep", "all"],
                 ["verify", "--only", "census,homomorphism"]):
        _run(fresh, argv, capsys, monkeypatch)


def test_queries_never_import_numpy():
    # every command runs on Python ints: verify certifies the homomorphism
    # by G9's presentation and the census on integer traces, so not even
    # a full verify imports numpy
    probe = textwrap.dedent("""
        import contextlib, io, sys
        from g9cov import cli
        assert "numpy" not in sys.modules
        argvs = [["group"], ["chartable", "--format", "latex"], ["molien", "--rep", "all"],
                 ["covariants", "--rep", "9", "--degree", "30"],
                 ["covariants", "--rep", "30", "--degree", "63"], ["generators", "--rep", "29"],
                 ["verify"]]
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(argv) for argv in argvs]
        assert codes == [0] * len(argvs), codes
        assert "numpy" not in sys.modules
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(g9cov.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_benchmark_span_targets_resolve(monkeypatch):
    # perfbench/spans.py wraps these names by attribute; a rename must fail
    # here rather than in a traced benchmark run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    names = [(session, "rep_matrices"), (covariants, "rep_matrices"),
             (molien, "rep_matrices"), (session, "character_table"),
             (cli, "verify_census"), (cli, "verify_homomorphism"),
             (cli, "molien_series"), (covariants, "molien_series")]
    before = [getattr(owner, attr) for owner, attr in names]
    assert before[:3] == [reps.rep_matrices] * 3
    undo = spans.instrument(spans.Tracer())
    try:
        assert all(getattr(o, a) is not b for (o, a), b in zip(names, before))
    finally:
        undo()
    assert [getattr(owner, attr) for owner, attr in names] == before


def test_tests_set_one_blas_thread():
    # conftest sets the variable before the oracles import numpy; g9cov
    # itself neither imports numpy nor touches the environment, and starts
    # no thread
    assert "OPENBLAS_NUM_THREADS" in os.environ
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(g9cov.__file__).resolve().parents[1])
    probe = ("import os, sys, g9cov; print(os.environ.get('OPENBLAS_NUM_THREADS'), "
             "len(os.listdir('/proc/self/task')), 'numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    assert out == ["None", "1", "False"]


def test_public_names_resolve():
    namespace = {}
    exec("from g9cov import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(g9cov.__all__)
    assert "kron" not in g9cov.__all__ and "Mat" not in g9cov.__all__
    assert "CycNum" not in g9cov.__all__ and "Rat" not in g9cov.__all__
    # Q(zeta_8) numbers are integer coordinates in g9cov: cyclo holds only
    # their text forms, and no module defines or imports a number class
    assert inspect.getmembers(cyclo, inspect.isclass) == []
    modules = [g9cov] + [importlib.import_module(f"g9cov.{m.name}")
                         for m in pkgutil.iter_modules(g9cov.__path__)]
    assert len(modules) == 11
    for module in modules:
        assert not {"CycNum", "Rat", "Mat"} & set(vars(module)), module.__name__


def test_mutant_lines_occur_once_in_src():
    # tests/mutants.py names each line it mutates by its text: each must
    # occur exactly once in src/, in the module the mutant names, so the
    # list cannot rot
    from mutants import MUTANTS
    lines = {p.name: [line.strip() for line in p.read_text().splitlines()]
             for p in Path(g9cov.__file__).parent.glob("*.py")}
    assert len({m.name for m in MUTANTS}) == len(MUTANTS) >= 15
    for m in MUTANTS:
        assert lines[m.path].count(m.line) == 1, m.name
        assert sum(text.count(m.line) for text in lines.values()) == 1, m.name
        assert all((Path(__file__).parents[1] / t).is_file() for t in m.tests), m.name
