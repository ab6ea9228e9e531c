"""Mutation check of the package: does some test fail on each listed bug?

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
ENSEMBLE = "src/care_filter/ensemble.py"
ESTIMATOR = "src/care_filter/estimator.py"
DETECTOR = "src/care_filter/detector.py"
KERNEL_TESTS = ("tests/test_harness.py",)
ESTIMATOR_TESTS = ("tests/test_estimator.py", "tests/test_harness.py")
DETECTOR_TESTS = ("tests/test_detector.py", "tests/test_harness.py")

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
    ("dependence threshold removed", PROJECTION,
     "_DEP_REL = 1e-11", "_DEP_REL = 0.0", PROJECTION_TESTS),
    ("trace transient 100 -> 101", ENSEMBLE,
     "_TRANSIENT = 100", "_TRANSIENT = 101", KERNEL_TESTS),
    ("identifiability limit 1e12 -> 1e13", ESTIMATOR,
     "_IDENT_LIMIT = 1e12", "_IDENT_LIMIT = 1e13", ESTIMATOR_TESTS),
    ("identifiability ratio strict", ESTIMATOR,
     "hi <= _IDENT_LIMIT * lo", "hi < _IDENT_LIMIT * lo", ESTIMATOR_TESTS),
    ("box covariance left after projection", ENSEMBLE,
     "    np.putmask(P12, F[0] | F[1], 0.0)\n", "", KERNEL_TESTS),
    ("channel rows swapped", ENSEMBLE,
     "_CH = [[0, 1], [3, 2]]", "_CH = [[3, 2], [0, 1]]", KERNEL_TESTS),
    ("face multiplier gate skipped", ENSEMBLE,
     "    if np.count_nonzero(both):\n", "    if False:\n", KERNEL_TESTS),
    ("free offsets passed to the face", ENSEMBLE,
     "np.empty_like(P), D * F", "np.empty_like(P), D", KERNEL_TESTS),
    ("ise columns given the care boxes", ENSEMBLE,
     '[name == "care" for name in self.names]', '[True for name in self.names]', KERNEL_TESTS),
    ("attack row compared at the state tolerance", ENSEMBLE,
     "n1[...] = n0", "n[1:] = n0", KERNEL_TESTS),
    ("active counts read before the fallback", ENSEMBLE,
     "_box_pairs(*pairs, ", "_box_pairs(*pairs[:5], pairs[5].copy(), *pairs[6:], ", KERNEL_TESTS),
    ("reversed schedule written only at set-up", ENSEMBLE,
     "S[1::2, ..., 1, :]", "S[1, ..., 1, :]", KERNEL_TESTS),
    ("reversed innovation not refreshed", ENSEMBLE,
     "        nr0[...], nr1[...] = nu1, nu0\n",
     "        if k == 1:\n            nr0[...], nr1[...] = nu1, nu0\n", KERNEL_TESTS),
    ("detector floor 1e-12 -> 1e-10", DETECTOR,
     "lam = np.maximum(lam, 1e-12 *", "lam = np.maximum(lam, 1e-10 *", DETECTOR_TESTS),
    ("CUSUM forgetting factor ignored", DETECTOR,
     "S = acc[..., j] = config.phi * S + stat", "S = acc[..., j] = S + stat", DETECTOR_TESTS),
    ("threshold = quantile", DETECTOR,
     "return self.quantile / (1.0 - self.phi)", "return self.quantile", DETECTOR_TESTS),
    ("truth clamp dropped", ENSEMBLE,
     "        np.minimum(np.maximum(truth, self.truth_box[0], out=truth), self.truth_box[1], "
     "out=truth)\n", "", KERNEL_TESTS),
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
