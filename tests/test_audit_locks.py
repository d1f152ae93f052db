"""Static lock-order analysis: the live service hierarchy, the committed
artifact, and synthetic deadlock/discipline fixtures."""

import json
import pathlib
import shutil
import textwrap

import pytest

from repro.audit.locks import (
    DEFAULT_LOCK_PATHS,
    analyze_lock_order,
    check_artifact,
    hierarchy_artifact,
)
from repro.pipeline.cli import main

REPO = pathlib.Path(__file__).resolve().parents[1]
ARTIFACT = REPO / "docs" / "lock_hierarchy.json"


def _live_report(monkeypatch):
    # The committed artifact records repo-relative paths, so compute from
    # the repo root regardless of where pytest was launched.
    monkeypatch.chdir(REPO)
    return analyze_lock_order()


def test_service_lock_graph_is_acyclic(monkeypatch):
    report = _live_report(monkeypatch)
    assert report.cycles == []
    assert report.violations == []
    assert report.ok


def test_service_hierarchy_shape(monkeypatch):
    """The documented ordering: per-filter op_lock outermost, then the
    registry/service/journal leaf locks (never nested into each other)."""
    report = _live_report(monkeypatch)
    ids = {d.lock_id for d in report.locks}
    assert {
        "FilterRegistry._lock",
        "FilterService._lock",
        "JobJournal._lock",
        "_Entry.op_lock",
    } <= ids
    # _all_done is a Condition over the service lock, not a distinct lock.
    aliases = {d.lock_id: d.alias_of for d in report.locks if d.alias_of}
    assert aliases.get("FilterService._all_done") == "FilterService._lock"
    levels = {
        lock_id: depth
        for depth, level in enumerate(report.hierarchy)
        for lock_id in level
    }
    assert levels["_Entry.op_lock"] < levels["FilterRegistry._lock"]
    assert levels["_Entry.op_lock"] < levels["FilterService._lock"]
    assert levels["_Entry.op_lock"] < levels["JobJournal._lock"]


def test_committed_artifact_is_fresh(monkeypatch):
    report = _live_report(monkeypatch)
    assert check_artifact(report, ARTIFACT) is None
    committed = json.loads(ARTIFACT.read_text(encoding="utf-8"))
    assert committed == hierarchy_artifact(report)


def test_artifact_check_reports_missing_and_stale(tmp_path, monkeypatch):
    report = _live_report(monkeypatch)
    missing = check_artifact(report, tmp_path / "nope.json")
    assert missing is not None and "missing" in missing
    stale_path = tmp_path / "stale.json"
    stale_path.write_text('{"locks": [], "edges": [], "hierarchy": []}')
    stale = check_artifact(report, stale_path)
    assert stale is not None and "stale" in stale


def test_synthetic_cycle_is_detected(tmp_path):
    (tmp_path / "tangled.py").write_text(
        textwrap.dedent(
            """
            import threading


            class Left:
                def __init__(self, other):
                    self.lock_a = threading.Lock()
                    self.other = other

                def forward(self):
                    with self.lock_a:
                        with self.other.lock_b:
                            pass


            class Right:
                def __init__(self, other):
                    self.lock_b = threading.Lock()
                    self.other = other

                def backward(self):
                    with self.lock_b:
                        with self.other.lock_a:
                            pass
            """
        ),
        encoding="utf-8",
    )
    report = analyze_lock_order([tmp_path])
    assert len(report.cycles) == 1
    assert set(report.cycles[0]) == {"Left.lock_a", "Right.lock_b"}
    assert not report.ok


def test_interprocedural_edge_is_found(tmp_path):
    """An edge created through a call chain, not lexical nesting."""
    # Outer.run's locked region calls into Inner via a receiver hint the
    # resolver accepts (the receiver token matches the class name).
    (tmp_path / "chained.py").write_text(
        textwrap.dedent(
            """
            import threading


            class Outer:
                def __init__(self, inner):
                    self.outer_lock = threading.Lock()
                    self.inner = inner

                def run(self):
                    with self.outer_lock:
                        self.inner.log()


            class Inner:
                def __init__(self):
                    self.inner_lock = threading.Lock()

                def log(self):
                    with self.inner_lock:
                        pass
            """
        ),
        encoding="utf-8",
    )
    report = analyze_lock_order([tmp_path])
    assert ("Outer.outer_lock", "Inner.inner_lock") in report.edges


def test_bare_acquire_outside_with_is_flagged(tmp_path):
    (tmp_path / "manual.py").write_text(
        textwrap.dedent(
            """
            import threading


            class Manual:
                def __init__(self):
                    self.mu = threading.Lock()

                def touch(self):
                    self.mu.acquire()
                    self.mu.release()
            """
        ),
        encoding="utf-8",
    )
    report = analyze_lock_order([tmp_path])
    assert report.violations
    assert not report.ok


def _copy_of_locked_trees(tmp_path, monkeypatch):
    """A copy of the analysed trees, with the working directory at its root."""
    for tree in DEFAULT_LOCK_PATHS:
        shutil.copytree(REPO / tree, tmp_path / tree, ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.chdir(tmp_path)


def test_a_line_shift_regenerates_the_same_artifact(tmp_path, monkeypatch):
    _copy_of_locked_trees(tmp_path, monkeypatch)
    service = tmp_path / "src" / "repro" / "service" / "service.py"
    service.write_text("\n" + service.read_text(encoding="utf-8"), encoding="utf-8")
    target = tmp_path / "hierarchy.json"
    args = ["audit", "--no-lint", "--write-lock-artifact", "--lock-artifact", str(target)]
    assert main(args) == 0
    assert target.read_bytes() == ARTIFACT.read_bytes()


#: A method added to one class of the copy, and what it changes in the graph.
_GRAPH_EDITS = {
    "new-lock": (
        "journal.py",
        "JobJournal",
        """
        def _reset_guard(self):
            self._guard = threading.Lock()
        """,
    ),
    "new-edge": (
        "journal.py",
        "JobJournal",
        """
        def _wake_service(self, service):
            with self._lock:
                with service._work_ready:
                    pass
        """,
    ),
    "new-acquiring-function": (
        "registry.py",
        "FilterRegistry",
        """
        def _touch(self, entry):
            with entry.op_lock:
                with self._lock:
                    pass
        """,
    ),
}


@pytest.mark.parametrize("edit", sorted(_GRAPH_EDITS))
def test_a_lock_graph_change_still_stales_the_artifact(tmp_path, monkeypatch, edit):
    _copy_of_locked_trees(tmp_path, monkeypatch)
    filename, class_name, method = _GRAPH_EDITS[edit]
    module = tmp_path / "src" / "repro" / "service" / filename
    source = module.read_text(encoding="utf-8")
    head, sep, body = source.partition(f"\nclass {class_name}")
    first_method = body.index("\n    def ")
    method = textwrap.indent(textwrap.dedent(method), "    ")
    module.write_text(
        head + sep + body[:first_method] + method + body[first_method:], encoding="utf-8"
    )
    stale = check_artifact(analyze_lock_order(), ARTIFACT)
    assert stale is not None and "stale" in stale
