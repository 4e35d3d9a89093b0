"""One-line mutants of the exact checks in src/g9cov, each with the tests that must kill it.

Run by hand from the root of the repository; pytest does not collect it:

    python tests/mutants.py

Each mutant replaces one source line, which must occur exactly once in
src/ (a Tier-1 test keeps the list from rotting), by a line that makes its
check a no-op or, for a computation that no check repeats, gets it wrong.
The script first runs every listed test file on an unmutated copy of
src/, tests/, perfbench/ and pyproject.toml and stops unless they all
pass.  Then, for each mutant, it applies the one mutation to a fresh copy
and runs the mutant's test files with pytest: a failed test (exit 1) or a
timeout kills the mutant, a clean pass lets it survive, and any other exit
(a collection or usage error) stops the script.  The exit status is 1 if a
survivor is not marked equivalent, with the reason why no test can tell
it from the original.

Reference: DeMillo, Lipton and Sayward, "Hints on test data selection",
IEEE Computer 11(4), 1978.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600     # per pytest run; the slowest takes about 12 s


class Mutant(NamedTuple):
    name: str
    path: str                   # relative to src/g9cov
    line: str                   # the source line, stripped of its indentation
    replacement: str            # what replaces it, at the same indentation
    tests: tuple[str, ...]      # test files, relative to the root
    equivalent: str | None = None   # why no test can kill it, if none can


LINALG, COVARIANTS = "tests/test_linalg.py", "tests/test_covariants.py"

MUTANTS = (
    # exact elimination (linalg.rref)
    Mutant("rref_back_substitution", "linalg.py",
           "if c := reduced[i][p]:", "if False:", (LINALG, COVARIANTS)),
    # the swap reduction and the T rows (covariants.CovariantEngine)
    Mutant("swap_is_t_d2_t", "covariants.py",
           "if multiply(multiply(t, d), multiply(d, t)) != ((zero, one), (one, zero)):",
           "if False:", (COVARIANTS,)),
    Mutant("central_not_scalar", "reps.py",
           "if central != scalar_image(rep.dim, central[0][0]):",
           "if False:", (COVARIANTS,)),
    Mutant("t_rational_per_rep", "covariants.py",
           "if any(x[1:] != (0, 0, 0) for row in t for x in row):", "if False:", (COVARIANTS,)),
    Mutant("tau_signed_entries", "covariants.py",
           "if not (all(x in (-1, 1) for x in sign) and tau == signed",
           "if not (True", (COVARIANTS,)),
    Mutant("dropped_row", "covariants.py",
           "if block[h:] != (list(map(neg, swapped)) if e % 2 else swapped):", "if False:",
           (COVARIANTS,)),
    Mutant("off_residue_central_character", "covariants.py",
           'return "T" if any(coeffs) else None', "return None", (COVARIANTS,)),
    Mutant("slice_equals_molien", "covariants.py",
           "if expected != result.dim:", "if False:", (COVARIANTS,)),
    # the free products, and their span above T_SYSTEM_DEGREE
    Mutant("products_drop_psi", "covariants.py",
           "for b, (e, coords, vec) in product(range(d // 24, -1, -1), gens):",
           "for b, (e, coords, vec) in product((0,), gens):", (COVARIANTS,)),
    Mutant("deep_invariants_covariant", "covariants.py",
           "elif not self._invariants_covariant:", "elif False:", (COVARIANTS,)),
    Mutant("deep_read_back", "covariants.py",
           "dens = [row[p] for row, p in zip(reduced[::-1], pivots[::-1])]",
           "dens = [row[-1 - p] for row, p in zip(reduced[::-1], pivots[::-1])]", (COVARIANTS,)),
    # generators and freeness
    Mutant("generator_count", "covariants.py",
           "if len(gens) != rep.dim:", "if False:", (COVARIANTS,)),
    Mutant("generator_degrees", "covariants.py",
           "if result.degrees != expected:", "if False:", (COVARIANTS,)),
    Mutant("free_degree_multiset", "covariants.py",
           "if have != want:", "if False:", (COVARIANTS,)),
    Mutant("free_invariants_independent", "covariants.py",
           "if not self._invariants_independent:", "if False:", (COVARIANTS,)),
    Mutant("free_determinant_nonzero", "covariants.py",
           "if self.generator_det(rid).is_zero():", "if False:", (COVARIANTS,)),
    # determinant factorization and the rank-1 closed forms
    Mutant("multiple_compares", "covariants.py",
           "return c if c and f == g.scale(c) else None", "return c if c else None",
           (COVARIANTS,)),
    Mutant("linear_exponents", "covariants.py",
           "if (k, e) != (a, b):", "if False:", (COVARIANTS,)),
    # the verify determinants line: one comparison with the reference exponents
    Mutant("determinant_exponents", "cli.py",
           "if (e, k) != reference.DET_EXPONENTS[rid]:", "if False:", ("tests/test_cli.py",)),
    # the group's products, classes, representations and Molien
    Mutant("multiply_in_lattice", "group.py",
           "if prod is None:", "if False:", ("tests/test_group.py",)),
    Mutant("closure_product_bound", "group.py",
           "if k is None or not _within_bound(k):", "if False:",
           ("tests/test_group.py",)),
    Mutant("reference_classes_distinct", "group.py",
           "if bid in seen_blocks:", "if False:", ("tests/test_group.py",)),
    Mutant("census_dimensions", "reps.py",
           "if dims != expected:", "if False:", ("tests/test_reps.py",)),
    Mutant("census_sum_of_squares", "reps.py",
           "if total != len(table):", "if False:", ("tests/test_reps.py",)),
    Mutant("census_gram_equality", "reps.py",
           "if x != (scale * (i == j), 0, 0, 0):", "if False:", ("tests/test_reps.py",)),
    # the homomorphism: G9's presentation, in the table and on the images
    Mutant("presentation_in_table", "reps.py",
           "if ends[0] != ends[1]:", "if False:", ("tests/test_reps.py",)),
    Mutant("presentation_on_images", "reps.py",
           "if image(rep, lhs) != image(rep, rhs):", "if False:", ("tests/test_reps.py",)),
    Mutant("coord_bound", "reps.py",
           "if nums.size and abs(nums).max() > COORD_BOUND:", "if False:",
           ("tests/test_reps.py",)),
    Mutant("extraction_invariance", "reps.py",
           "if tuple(vm) != moved:", "if False:", ("tests/test_reps.py",)),
    # the characters: tr rho(z^k h) = zeta_8^(r k) tr rho(h), caught by the
    # census and by the comparison with the reference table
    Mutant("class_traces_central_power", "reps.py",
           "out += [zeta_shift(tr, r * k) for k in range(count)]", "out += [tr] * count",
           ("tests/test_reps.py",)),
    Mutant("class_factor_integrality", "molien.py",
           "if any(x % group.DEN for x in tr) or any(x % group.DEN ** 2 for x in dt):",
           "if False:", ("tests/test_molien.py",)),
    Mutant("molien_numerator_sum", "molien.py",
           "if total != rep.dim:", "if False:", ("tests/test_molien.py",)),
    # the central character behind the five-base Molien sum
    Mutant("molien_central_character", "molien.py",
           "if r is None:", "if False:", ("tests/test_molien.py",)),
)


def mutate(tree: Path, mutant: Mutant) -> None:
    """Apply mutant to the copy of the repository at tree."""
    path = tree / "src" / "g9cov" / mutant.path
    lines = path.read_text().splitlines(keepends=True)
    hits = [i for i, line in enumerate(lines) if line.strip() == mutant.line]
    if len(hits) != 1:
        raise ValueError(f"{mutant.name}: the line occurs {len(hits)} times in {mutant.path}")
    old = lines[hits[0]]
    indent = old[:len(old) - len(old.lstrip())]
    lines[hits[0]] = indent + mutant.replacement + "\n"
    path.write_text("".join(lines))


def pytest_exit(mutant: Mutant | None, tests: tuple[str, ...]) -> int | None:
    """pytest's exit status on tests in a fresh copy of the tree, with mutant applied if any.

    None means the run timed out.  A status other than 0 or 1 raises.
    """
    with tempfile.TemporaryDirectory(prefix="g9cov-mutant-") as tmp:
        tree = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
        # tests/test_cli.py also reads perfbench/ (it checks the names spans.py wraps)
        for name in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / name, tree / name, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", tree)
        if mutant is not None:
            mutate(tree, mutant)
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
        try:
            proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None
        if proc.returncode not in (0, 1):
            name = mutant.name if mutant else "unmutated copy"
            raise RuntimeError(f"{name}: pytest exited {proc.returncode}\n{proc.stdout}"
                               f"{proc.stderr}")
        return proc.returncode


def main() -> int:
    # a broken copy would fail every mutant's tests and so "kill" them all
    tests = tuple(sorted({t for m in MUTANTS for t in m.tests}))
    baseline = pytest_exit(None, tests)
    if baseline != 0:
        print(f"unmutated copy: pytest exited {baseline} on {', '.join(tests)}", file=sys.stderr)
        return 1
    failing = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        verdict = "killed"
        if pytest_exit(mutant, mutant.tests) == 0:
            verdict = f"equivalent: {mutant.equivalent}" if mutant.equivalent else "SURVIVED"
            failing += not mutant.equivalent
        print(f"{mutant.name}: {verdict} ({time.perf_counter() - start:.1f} s)", flush=True)
    print(f"{failing} unexplained survivors")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
