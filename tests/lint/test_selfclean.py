"""The shipped tree must satisfy its own invariants: linting ``src/repro``
produces zero findings (suppressions with stated justifications aside),
per-file and whole-program alike -- the self-linting pipeline CI runs."""

from pathlib import Path

import repro
from repro.lint import (
    LintEngine,
    lint_project,
    registered_flow_rules,
    registered_project_rules,
    registered_rules,
    registered_tensor_rules,
)

SRC_ROOT = Path(repro.__file__).resolve().parent
REPO_ROOT = Path(__file__).resolve().parents[2]


def test_src_repro_lints_clean():
    engine = LintEngine()
    findings = engine.lint_paths([str(SRC_ROOT)])
    assert findings == [], "\n".join(f.format() for f in findings)
    # Guard against accidental mass-suppression: the three documented
    # disables (SystemRandom seeding, per-site and per-client streams)
    # should be roughly all there is.
    assert engine.suppressed_count <= 6
    assert engine.files_checked > 50


def test_tests_and_benchmarks_lint_clean():
    # Same bar for the test tree; its exact-equality asserts carry
    # file-level RL003 disables with stated justification.
    engine = LintEngine()
    findings = engine.lint_paths([str(REPO_ROOT / "tests")])
    assert findings == [], "\n".join(f.format() for f in findings)
    assert engine.files_checked > 30


def test_project_rules_lint_clean():
    # The whole-program pass (RL101-RL106) over the real package: the
    # layering DAG holds, the import graph is acyclic, pool workers are
    # picklable, and no RNG provenance leaks -- without a baseline.
    report = lint_project(
        [str(SRC_ROOT), str(REPO_ROOT / "tests")],
        rule_ids=[],
        project_rule_ids=sorted(registered_project_rules()),
        jobs=1,
    )
    assert report.analyzed_project
    assert report.findings == [], "\n".join(f.format() for f in report.findings)


def test_flow_rules_lint_clean():
    # The flow-sensitive pass (RL201-RL205) over the real tree: no
    # stream is shared across replicates, reused after hand-off, or
    # unseeded in decision code, and no float reduction sees a
    # provably-unordered operand.  The acceptance bar for --flows.
    report = lint_project(
        [str(SRC_ROOT), str(REPO_ROOT / "tests")],
        rule_ids=[],
        project_rule_ids=[],
        flow_rule_ids=sorted(registered_flow_rules()),
        jobs=1,
    )
    assert report.analyzed_project
    assert report.findings == [], "\n".join(f.format() for f in report.findings)


def test_tensor_rules_lint_clean():
    # The tensor pass (RL301-RL305) over the real tree: no provably
    # incompatible broadcasts, no silent dtype drift on the columnar
    # columns, no mutation through fingerprinted aliases, no unstable
    # sorts in decision paths, and every ColumnarUnsupported guard is
    # live and reached.  The acceptance bar for --tensors.
    report = lint_project(
        [str(SRC_ROOT), str(REPO_ROOT / "tests")],
        rule_ids=[],
        project_rule_ids=[],
        tensor_rule_ids=sorted(registered_tensor_rules()),
        jobs=1,
    )
    assert report.analyzed_project
    assert report.findings == [], "\n".join(f.format() for f in report.findings)


def test_full_project_mode_matches_serial_composition():
    # --project = per-file rules + project rules; the combined run over
    # src/repro must stay clean and count every module.
    report = lint_project(
        [str(SRC_ROOT)],
        rule_ids=sorted(registered_rules()),
        project_rule_ids=sorted(registered_project_rules()),
        jobs=1,
    )
    assert report.findings == [], "\n".join(f.format() for f in report.findings)
    assert report.files_checked > 50
