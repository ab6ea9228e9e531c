"""Compare this checkout's outputs with those of a git revision: a report, not a gate.

    python tools/against_parent.py [REV]

extracts REV (default HEAD) with `git archive` into a temporary directory, so
the repository gains no worktree, and runs the same checks there and in this
checkout, each tree with its own `src/`:

- `bench/workloads.digest` of 18 study calls: calls 0-1 at seeds 1-3 of every
  workload;
- the bytes of the CSV files of `simulate --baseline both` and
  `montecarlo --runs 3`;
- the acceptance gate's `criterion N:` lines, with elapsed times dropped;
- the failing tests of `python -m pytest bench`, with their messages;
- the tier-1 counts (`python -m pytest`, the gate included);
- the line count of `src/care_filter/*.py`;
- the killed count of `tools/mutants.py`.

It prints one table: each check reads same or differs, with the first
difference. The two trees run one after the other; the mutants take most of
the few minutes a tree needs. Exits 0 whatever the table says.
"""

import os
import re
import subprocess
import sys
import tempfile
from difflib import SequenceMatcher
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

DIGESTS = """
import sys
sys.path.insert(0, "bench")
import workloads
for name, workload in workloads.WORKLOADS.items():
    for seed in (1, 2, 3):
        for index in (0, 1):
            out = workloads.run_call(workload, workloads.scenario(workload, seed, index))
            print(name, seed, index, workloads.digest(workload, out))
"""

CLI = "import sys; from care_filter.cli import main; sys.exit(main(sys.argv[1:]))"

_ELAPSED = re.compile(r",\s*(?:MC\s+)?(?:elapsed\s+)?\d+(?:\.\d+)?s\b")
_COUNTS = re.compile(r"^=*\s*(\d+ \w+(?:, \d+ \w+)*) in [\d.]+s")
_KILLED = re.compile(r"^(\d+ of \d+) mutants killed", re.MULTILINE)


def criterion_lines(text):
    """The gate's `criterion N: ...` lines in output order, elapsed times dropped.
    Progress characters printed before a line on the same row are dropped too."""
    found = (re.search(r"criterion \d+: .*", line) for line in text.splitlines())
    return [_ELAPSED.sub("", m.group(0)).rstrip() for m in found if m]


def summary_counts(text):
    """pytest's summary counts, such as "275 passed, 1 skipped", without the time."""
    for line in reversed(text.splitlines()):
        if m := _COUNTS.match(line):
            return [m.group(1)]
    return ["no pytest summary line"]


def failures(text, tree):
    """Sorted FAILED and ERROR lines of pytest's short summary, tree path dropped."""
    return sorted(line.replace(str(tree), ".") for line in text.splitlines()
                  if line.startswith(("FAILED ", "ERROR ")))


def killed(text):
    return [m.group(1)] if (m := _KILLED.search(text)) else ["no mutant summary line"]


def first_difference(a, b):
    """None when the line lists agree, else their first differing block: where it
    starts and its first line on each side, so an inserted line reads as one."""
    for op, i1, i2, j1, j2 in SequenceMatcher(None, a, b, autojunk=False).get_opcodes():
        if op != "equal":
            old, new = (repr(x[0]) if x else "nothing" for x in (a[i1:i2], b[j1:j2]))
            return f"line {i1 + 1}: {old} vs {new}"
    return None


def _run(tree, *args):
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1",
               COLUMNS="10000")
    proc = subprocess.run([sys.executable, *args], cwd=tree, env=env,
                          capture_output=True, text=True)
    return proc.stdout + proc.stderr


def _csv_bytes(tree, scratch):
    """The CSV files the two CLI studies write, one entry per line of bytes."""
    lines = []
    for study, extra in (("simulate", ["--baseline", "both"]), ("montecarlo", ["--runs", "3"])):
        out = scratch / study
        out.mkdir(parents=True)
        log = _run(tree, "-c", CLI, study, "--out", str(out), *extra)
        files = sorted(out.glob("*.csv"))
        if not files:
            lines.append(f"{study}: no CSV written: {log.strip()[-200:]}")
        for f in files:
            lines += [f"{study}/{f.name}:{i + 1}: {line!r}"
                      for i, line in enumerate(f.read_bytes().splitlines(keepends=True))]
    return lines


def collect(tree, scratch):
    """Every check's lines for one tree."""
    tier1 = _run(tree, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider")
    src = sorted((tree / "src" / "care_filter").glob("*.py"))
    return {
        "digests (18 calls)": _run(tree, "-c", DIGESTS).splitlines(),
        "CLI CSV bytes": _csv_bytes(tree, scratch),
        "gate figures": criterion_lines(tier1),
        "bench failures": failures(
            _run(tree, "-m", "pytest", "-q", "-p", "no:cacheprovider", "bench"), tree),
        "tier-1 counts": summary_counts(tier1),
        "src lines": [str(sum(len(f.read_text().splitlines()) for f in src))],
        "mutants killed": killed(_run(tree, "tools/mutants.py")),
    }


def main(argv):
    rev = argv[0] if argv else "HEAD"
    with tempfile.TemporaryDirectory(prefix="against-") as tmp:
        tmp = Path(tmp)
        parent = tmp / "rev"
        parent.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(parent)], input=archive, check=True)
        old = collect(parent, tmp / "rev-out")
        new = collect(ROOT, tmp / "new-out")
    print(f"| check | {rev} vs this checkout | first difference |")
    print("| --- | --- | --- |")
    for check, lines in old.items():
        diff = first_difference(lines, new[check])
        shown = (diff or "")[:300].replace("|", "\\|")
        print(f"| {check} | {'differs' if diff else 'same'} | {shown} |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
