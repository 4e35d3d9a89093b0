import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from g9cov import cli, poly, reference
from g9cov.poly import BiPoly


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_group_json(capsys):
    code, out = run_cli(capsys, "group", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 192
    assert len(data["elements"]) == 192
    assert len(data["classes"]) == 32
    td = data["classes"][24]
    assert td == {"rep": "TD", "ord": 24, "size": 8}


def test_group_text(capsys):
    code, out = run_cli(capsys, "group")
    assert code == 0
    assert "group order 192, 32 conjugacy classes" in out


def test_chartable_csv_shape_and_determinism(capsys):
    code, first = run_cli(capsys, "chartable")
    assert code == 0
    code, second = run_cli(capsys, "chartable")
    assert first == second
    lines = first.strip().split("\n")
    assert len(lines) == 35  # header + ord + |C| + 32 rows
    assert lines[0].startswith("class,I,z*I")
    assert lines[1] == "ord," + ",".join(
        "1 8 4 8 2 8 4 8 2 8 4 8 4 8 4 8 4 8 4 8 2 8 4 8 24 6 24 12 24 3 24 12".split())
    assert lines[3].startswith("chi_1,") and lines[3].count(",") == 32


def test_chartable_latex(capsys):
    code, out = run_cli(capsys, "chartable", "--format", "latex")
    assert code == 0
    assert out.count(r"\begin{array}") == 2
    assert r"\chi_{32}" in out and r"\zeta^3" in out


def test_molien_text_head(capsys):
    code, out = run_cli(capsys, "molien", "--rep", "29", "--terms", "40")
    assert code == 0
    assert out.strip() == "rho_29: t^3 + 2t^11 + 3t^19 + 5t^27 + 6t^35"


def test_molien_json(capsys):
    code, out = run_cli(capsys, "molien", "--rep", "21", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["rep"] == 21
    assert data["terms"][:3] == [[2, 1], [10, 2], [18, 3]]
    assert data["numerator"] == [[2, 1], [10, 1], [18, 1]]


def test_molien_all_reps(capsys):
    code, out = run_cli(capsys, "molien", "--rep", "all", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 32 and data[0]["rep"] == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["generators", "--rep", "all"])
    assert exc.value.code == 2


# sha256 of stdout: the molien pins cover every degree through 256 of all
# 32 series, the verify pin every check's detail line; the deep slice, a
# basis reconstructed from 16 primes, guards the multiprime path
PINNED_OUTPUTS = [
    (["verify"], "78737441582a6c61dbbecd1a3ce035d751f27406c2e619f64cdb08c32cf1643d"),
    (["molien", "--rep", "all", "--terms", "256", "--numerator"],
     "0e5b98642ed8fd34cec338b9b1cb5e4fc60f939d394642f4b846988736a0686d"),
    (["molien", "--rep", "all", "--terms", "256", "--numerator", "--format", "json"],
     "5e14d27315f681901124c3568042f495c4bd5930aeda9aba2b73b3289daccfdf"),
    (["covariants", "--rep", "21", "--degree", "250"],
     "4df4f6101febaa495523fdd7cbaecaeb89eb6a7166bbd9abc0ea11076efd2f21"),
]


@pytest.mark.parametrize("argv, sha256", PINNED_OUTPUTS,
                         ids=["verify", "molien", "molien-json", "covariants-21-250"])
def test_output_bytes_pinned(capsys, argv, sha256):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_group_json_deterministic(capsys):
    code, first = run_cli(capsys, "group", "--format", "json")
    assert code == 0
    _, second = run_cli(capsys, "group", "--format", "json")
    assert first == second


def test_covariants_command(capsys):
    code, out = run_cli(capsys, "covariants", "--rep", "9", "--degree", "1")
    assert code == 0
    assert "dimension 1" in out and "[x, y]" in out


def test_generators_command(capsys):
    code, out = run_cli(capsys, "generators", "--rep", "3")
    assert code == 0
    assert "degrees [6]" in out
    assert "x^5*y - x*y^5" in out   # the normalized multiple of gamma
    code, out = run_cli(capsys, "generators", "--rep", "9", "--format", "json")
    data = json.loads(out)
    assert data["degrees"] == [1, 17]
    assert data["det"]["e"] == 1 and data["det"]["k"] == 1


def test_usage_errors():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["molien", "--rep", "40"])
    assert exc.value.code == 2
    for argv in (["covariants", "--rep", "9", "--degree", "-1"],
                 ["covariants", "--rep", "9", "--degree", str(cli.MAX_DEGREE + 1)],
                 ["molien", "--rep", "9", "--terms", "0"],
                 ["molien", "--rep", "all", "--terms", str(cli.MAX_DEGREE + 1)]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2, argv


def test_degree_limit_is_accepted(capsys):
    code, out = run_cli(capsys, "molien", "--rep", "1", "--terms", str(cli.MAX_DEGREE))
    assert code == 0 and out.startswith("rho_1: 1 + t^8")
    assert cli.MAX_DEGREE >= 128    # every benchmark command stays valid


def test_verify_only_molien(capsys):
    code, out = run_cli(capsys, "verify", "--only", "molien")
    assert code == 0
    assert out.startswith("PASS molien")
    assert "all checks passed" in out


def test_verify_unknown_check(capsys):
    code = cli.main(["verify", "--only", "nosuch"])
    assert code == 2


def test_verify_strict_chartable(capsys):
    code, out = run_cli(capsys, "verify", "--only", "chartable", "--strict")
    assert code == 1
    assert "FAIL chartable" in out
    assert "first failure: chartable" in out


def test_verify_fault_injection(capsys, monkeypatch):
    # corrupt the degree-12 form: the phi identity must fail, named
    def broken():
        gamma, theta, delta, phi = BiPoly({(5, 1): -1, (1, 5): 1}), None, None, None
        theta = BiPoly({(8, 0): 1, (4, 4): 14, (0, 8): 1})
        delta = BiPoly({(12, 0): 1, (8, 4): -32, (4, 8): -33, (0, 12): 1})
        phi = BiPoly({(24, 0): 1, (16, 8): 759, (12, 12): 2576, (8, 16): 759, (0, 24): 1})
        return gamma, theta, delta, phi

    monkeypatch.setattr(poly, "fundamental_invariants", broken)
    code, out = run_cli(capsys, "verify", "--only", "invariants")
    assert code == 1
    assert "FAIL invariants: phi = delta^2 + 66 gamma^4 fails" in out


@pytest.mark.parametrize("form, terms, moved_by, message", [
    # x^2 + y^2: fixed by T, not by D
    ("theta", {(2, 0): 1, (0, 2): 1}, "D", "theta/phi moved by element {}"),
    # x^4 + y^4: fixed by D, not by T
    ("theta", {(4, 0): 1, (0, 4): 1}, "T", "theta/phi moved by element {}"),
    # x^5 y moved from 1 to 2: D support kept; the phi identity and tau fail too
    ("gamma", {(5, 1): 2, (1, 5): -1}, "T",
     "phi = delta^2 + 66 gamma^4 fails; tau action on gamma/theta fails; "
     "gamma is not rho_3-covariant at element {}"),
    # x^8 y^4 moved from -33 to -32: D support kept; the phi identity fails too
    ("delta", {(12, 0): 1, (8, 4): -32, (4, 8): -33, (0, 12): 1}, "T",
     "phi = delta^2 + 66 gamma^4 fails; delta is not rho_5-covariant at element {}"),
], ids=["terms0-D", "terms1-T", "gamma-T", "delta-T"])
def test_verify_invariants_names_the_moved_element(capsys, monkeypatch, table,
                                                   form, terms, moved_by, message):
    forms = dict(zip(("gamma", "theta", "delta", "phi"), poly.fundamental_invariants()))
    forms[form] = BiPoly(terms)
    monkeypatch.setattr(poly, "fundamental_invariants", lambda: tuple(forms.values()))
    code, out = run_cli(capsys, "verify", "--only", "invariants")
    assert code == 1
    index = table.lookup(table.gens[moved_by])
    assert f"FAIL invariants: {message.format(index)}\n" in out


def test_verify_tau_reports_a_wrong_sign(capsys, monkeypatch):
    # rho_21's swap pattern has sign +1; claiming -1 must fail every generator
    monkeypatch.setitem(reference.TAU_SIGNS, 21, -reference.TAU_SIGNS[21])
    code, out = run_cli(capsys, "verify", "--only", "tau")
    assert code == 1
    assert ("FAIL tau: no swap-symmetric representative at "
            "[(21, 2), (21, 10), (21, 18)]\n") in out


def test_perfbench_spans_find_every_wrapped_name(monkeypatch):
    # perfbench/spans.py wraps module names of g9cov; renaming or deleting
    # one of them breaks `perfbench/run.py --trace 1`, and must fail here
    from g9cov import covariants, linalg
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import spans
    substitute = poly.BiPoly.substitute
    undo = spans.instrument(spans.Tracer())
    try:
        assert poly.BiPoly.substitute is not substitute
        assert covariants.rref is not linalg.rref
    finally:
        undo()
    assert poly.BiPoly.substitute is substitute
    assert covariants.rref is linalg.rref


def test_out_file(tmp_path, capsys):
    target = tmp_path / "series.json"
    code = cli.main(["molien", "--rep", "1", "--format", "json", "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    data = json.loads(target.read_text())
    assert data["numerator"] == [[0, 1]]


def test_console_script_subprocess():
    out = subprocess.run([sys.executable, "-m", "g9cov.cli", "molien",
                          "--rep", "19", "--terms", "30"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stdout.strip() == "rho_19: t^4 + t^12 + 2t^20 + 3t^28"
