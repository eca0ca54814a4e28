"""The acceptance gate: the shipped tree lints clean.

``repro-lint --baseline reprolint-baseline.json --strict`` exiting 0 is
part of the merge contract (CI runs exactly that); this test is the same
check in pytest form so a violation fails the suite locally before CI
ever sees it.  "Clean" means clean *modulo the committed baseline*: the
ratchet file grandfathers named pre-existing findings, and a stale entry
(debt paid but not deleted) fails here as a BASE001 warning.
"""

from pathlib import Path

from repro.analysis import lint_paths
from repro.analysis.flow.baseline import load_baseline

REPO_ROOT = Path(__file__).parents[2]
SRC = REPO_ROOT / "src" / "repro"
BASELINE = REPO_ROOT / "reprolint-baseline.json"


def _baseline():
    return load_baseline(BASELINE.read_text(encoding="utf-8"))


def test_benchmarks_and_examples_lint_clean():
    report = lint_paths([
        str(REPO_ROOT / "benchmarks"), str(REPO_ROOT / "examples"),
    ])
    assert report.files_checked > 0
    assert report.findings == [], "\n" + "\n".join(
        f.render() for f in report.findings
    )


def test_baseline_has_no_unjustified_entries():
    """Every grandfathered finding carries its own why."""
    entries = _baseline()
    for entry in entries:
        assert entry.why, f"baseline entry for {entry.rule} needs a 'why'"


def test_full_tree_lints_clean_with_baseline():
    """The exact CI invocation: src + benchmarks + examples, strict."""
    report = lint_paths(
        [str(SRC), str(REPO_ROOT / "benchmarks"), str(REPO_ROOT / "examples")],
        baseline=_baseline(),
        baseline_path=str(BASELINE),
    )
    assert report.files_checked > 100  # the walk really found the tree
    assert report.findings == [], "\n" + "\n".join(
        f.render() for f in report.findings
    )
    assert report.ok(strict=True)
