"""Mutation check of the projector: does some test fail on each listed bug?

Copies the repository to a temporary directory, applies one textual mutation
at a time to that copy, and runs the test files named for the mutant with
`pytest -x`. A mutant is killed when a test fails, and the first failing test
is reported; it survives when every test passes. The repository itself is
never edited.

    python tools/mutants.py

runs every mutant in MUTANTS; to run one alone, call `run_mutant` on it.

Exits 1 when a mutant survives or cannot be applied, else 0. Needs only the
test dependencies of the package.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROJECTION = "src/care_filter/projection.py"
PROJECTION_TESTS = ("tests/test_projection.py",)

# (name, file, text to replace, its replacement, test files to run)
MUTANTS = [
    ("multiplier sign test dropped", PROJECTION,
     "good = ((lam >= 0.0) & (lam < np.inf)).all()", "good = (lam < np.inf).all()",
     PROJECTION_TESTS),
    ("feasibility tolerance x10", PROJECTION,
     "_FEAS_REL = 1e-10", "_FEAS_REL = 1e-9", PROJECTION_TESTS),
    ("condition limit 1e12 -> 1e13", PROJECTION,
     "_COND_LIMIT = 1e12", "_COND_LIMIT = 1e13", PROJECTION_TESTS),
    ("refinement step removed", PROJECTION,
     "        z = z - G @ res[rows]\n", "", PROJECTION_TESTS),
    ("null floor x10", PROJECTION,
     "_NULL_REL = 1e-14", "_NULL_REL = 1e-13", PROJECTION_TESTS),
    ("dependence threshold x10", PROJECTION,
     "_DEP_REL = 1e-11", "_DEP_REL = 1e-10", PROJECTION_TESTS),
    ("asymmetry check removed", PROJECTION,
     "if np.isfinite(P).all() and np.abs(P - P.T).max(initial=0.0) > bound:", "if False:",
     PROJECTION_TESTS),
    ("multiplier scale dropped", PROJECTION,
     "lam / scale[rows], G / scale[rows]", "lam, G / scale[rows]", PROJECTION_TESTS),
    ("vertex fallback removed", PROJECTION,
     "if _face_solve(e, P, A, b, face, A @ e - b, tol * row_norms)[3]:", "if False:",
     PROJECTION_TESTS),
]


def run_mutant(copy, name, path, old, new, tests):
    """Apply one mutant to the copy, run its tests and restore the file.
    Returns ("killed", test id), ("survived", "") or ("unapplied", reason)."""
    target = copy / path
    original = target.read_text()
    if original.count(old) != 1:
        return "unapplied", f"{old!r} occurs {original.count(old)} times in {path}"
    target.write_text(original.replace(old, new))
    try:
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=copy, env=env, capture_output=True, text=True)
    finally:
        target.write_text(original)
    if proc.returncode == 0:
        return "survived", ""
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)
    return "killed", failed.group(1) if failed else f"pytest exit {proc.returncode}"


def main():
    bad = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", "*.pyc", ".pytest_cache", ".hypothesis", "*.egg-info"))
        for name, path, old, new, tests in MUTANTS:
            verdict, detail = run_mutant(copy, name, path, old, new, tests)
            bad += verdict != "killed"
            print(f"{verdict:9} {name}" + (f": {detail}" if detail else ""), flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
