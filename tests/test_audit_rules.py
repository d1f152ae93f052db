"""Every AUD1xx rule: its violating fixture fires, its clean twin doesn't,
and the live tree gates clean (the audit's own dogfood test)."""

import pathlib

import pytest

from repro.audit import gating, run_lint
from repro.audit.lint import all_rules, infer_roles, load_module

REPO = pathlib.Path(__file__).resolve().parents[1]
FIXTURES = REPO / "tests" / "data" / "audit_fixtures"
RULE_IDS = ("AUD100", "AUD101", "AUD102", "AUD103", "AUD104", "AUD105", "AUD106", "AUD107")


def _rules_hit(path: pathlib.Path) -> set:
    return {f.rule for f in run_lint([path]) if not f.suppressed}


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_violating_fixture_fires(rule_id):
    hits = _rules_hit(FIXTURES / f"{rule_id.lower()}_violation.py")
    assert rule_id in hits


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_clean_fixture_is_quiet(rule_id):
    hits = _rules_hit(FIXTURES / f"{rule_id.lower()}_clean.py")
    assert rule_id not in hits


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_fixture_pairs_are_rule_specific(rule_id):
    """A violating fixture demonstrates exactly its own rule, nothing else."""
    hits = _rules_hit(FIXTURES / f"{rule_id.lower()}_violation.py")
    assert hits == {rule_id}


def test_every_rule_has_fixtures():
    registered = {rule.rule_id for rule in all_rules()}
    # AUD100 is the engine's own bare-ignore meta rule, not a registered one.
    assert registered == set(RULE_IDS) - {"AUD100"}
    for rule_id in RULE_IDS:
        stem = rule_id.lower()
        assert (FIXTURES / f"{stem}_violation.py").exists()
        assert (FIXTURES / f"{stem}_clean.py").exists()


def test_live_tree_gates_clean():
    """`python -m repro audit` must exit 0 on the repo's own source."""
    findings = run_lint([REPO / "src" / "repro"])
    assert gating(findings) == []


def test_live_tree_suppressions_are_visible():
    """keep_suppressed surfaces the waived findings for review."""
    findings = run_lint([REPO / "src" / "repro"], keep_suppressed=True)
    suppressed = [f for f in findings if f.suppressed]
    assert suppressed, "the tree documents at least one waived finding"
    # Suppressed findings never gate.
    assert gating(findings) == []


def test_suppression_requires_rule_list(tmp_path):
    src = tmp_path / "bare.py"
    src.write_text("x = 1  # audit: ignore\n", encoding="utf-8")
    findings = run_lint([src])
    assert [f.rule for f in findings] == ["AUD100"]


def test_stale_waiver_is_reported():
    """A waiver whose rule ran on its line and found nothing is AUD100."""
    findings = run_lint([FIXTURES / "aud100_violation.py"])
    assert [(f.rule, f.line) for f in findings] == [("AUD100", 6), ("AUD100", 10)]
    assert "bare" in findings[0].message
    assert "stale waiver: AUD105" in findings[1].message


def test_comment_line_suppression_covers_next_code_line(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "# audit: module-role=persistence\n"
        "import os\n"
        "\n"
        "\n"
        "def mover(a, b):\n"
        "    # audit: ignore[AUD103] - caller fsyncs the parent directory\n"
        "    os.rename(a, b)\n",
        encoding="utf-8",
    )
    findings = run_lint([src], keep_suppressed=True)
    assert [f.rule for f in findings] == ["AUD103"]
    assert findings[0].suppressed


def test_role_inference_from_paths():
    assert "deterministic" in infer_roles(pathlib.Path("src/repro/core/base.py"))
    assert "bulk-api" in infer_roles(pathlib.Path("src/repro/baselines/sqf.py"))
    assert "persistence" in infer_roles(
        pathlib.Path("src/repro/service/journal.py")
    )
    assert "service" in infer_roles(pathlib.Path("src/repro/service/service.py"))
    # Pipeline modules carry no audit role: no role-gated rule applies.
    assert infer_roles(pathlib.Path("src/repro/pipeline/cli.py")) == frozenset()


def test_role_directive_overrides_path(tmp_path):
    src = tmp_path / "anywhere.py"
    src.write_text(
        "# audit: module-role=deterministic\nimport time\nT = time.time()\n",
        encoding="utf-8",
    )
    assert _rules_hit(src) == {"AUD102"}


def test_unparsable_file_is_refused(tmp_path):
    src = tmp_path / "broken.py"
    src.write_text("def broken(:\n", encoding="utf-8")
    with pytest.raises(SyntaxError):
        load_module(src)


@pytest.mark.parametrize(
    "loop, flagged",
    [
        ("for lo in range(0, keys.size, CHUNK):", False),
        ("for lo in range(0, len(keys), 4096):", False),
        ("for i in range(keys.size):", True),
        ("for i in range(0, keys.size):", True),
        ("for i in range(0, keys.size, 1):", True),
        ("for k in keys:", True),
    ],
)
def test_aud101_tells_chunk_walks_from_item_loops(tmp_path, loop, flagged):
    """A ``range`` stepping by anything but 1 walks chunks, not items."""
    src = tmp_path / "chunked.py"
    src.write_text(
        "# audit: module-role=bulk-api\n"
        "CHUNK = 4096\n"
        "\n"
        "\n"
        "class ToyFilter:\n"
        "    def bulk_query(self, keys):\n"
        "        out = []\n"
        f"        {loop}\n"
        "            out.append(0)\n"
        "        return out\n",
        encoding="utf-8",
    )
    assert ("AUD101" in _rules_hit(src)) is flagged
