"""Every public name in ``src/repro`` has a production caller or is a named oracle.

A public top-level function or class, or a public method of a public class,
must be referenced outside its own definition somewhere in ``src/``,
``perfbench/`` or ``examples/``. A package ``__init__`` re-export (its import
or its ``__all__`` entry) is not a reference. Names are matched bare, as
attribute loads and as identifier-like string constants (``perfbench/trace.py``
patches entry points by name), so a name used anywhere keeps every definition
that shares it. A top-level name also counts through a bare name load; a
method does not, as no bare name calls one. AST visitor hooks (``visit_*``)
and dunders are called by their frameworks and are skipped.

A name with no such caller stays only if a test needs it, and
:data:`ORACLES` names that test.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CALLER_TREES = (ROOT / "src", ROOT / "perfbench", ROOT / "examples")

#: Public names with no production caller, each mapped to the node id of a
#: test that needs it: a per-item or per-read reference a batched path is
#: compared against, an invariant or enumeration check, or a library entry
#: point (shard-set persistence, the sharded-TCF builder, a sharded
#: filter's merge into one filter, preset overrides, the torn-write fault
#: injector) whose only callers are its behaviour tests.
ORACLES = {
    "QuotientFilterCore.check_invariants": (
        "tests/test_gqf_layout.py::TestBasicInsertQuery::test_single_insert"
    ),
    "QuotientFilterCore.iter_fingerprints": (
        "tests/test_gqf_vectorized.py::TestBulkPointDifferential"
        "::test_sequential_and_vectorised_paths_build_identical_tables"
    ),
    "BackingTable.iter_items": (
        "tests/test_tcf_vectorized.py::TestBackingBulkAPI::test_bulk_matches_point_below_overflow"
    ),
    "KernelContext.kernels_named": (
        "tests/test_tcf_vectorized.py::TestChunkParity::test_spills_duplicates_query_and_delete"
    ),
    "KernelContext.total_stats": "tests/test_lifecycle.py::test_tcf_rebuild_keeps_kernel_records",
    "StatsRecorder.reset": (
        "tests/test_point_vectorized.py::TestGQFDeleteDifferential"
        "::test_state_counts_and_locks_match"
    ),
    "SpinLockTable.lock": (
        "tests/test_point_vectorized.py::TestLockBatchReplay::test_totals_and_generator_state_match"
    ),
    "SpinLockTable.unlock": (
        "tests/test_point_vectorized.py::TestLockBatchReplay::test_totals_and_generator_state_match"
    ),
    "TwoChoiceFilter.block_fills": (
        "tests/test_tcf_point.py::TestLoadFactorAndBacking::test_block_fills_balanced_by_potc"
    ),
    "RegionPartition.region_bounds": (
        "tests/test_gqf_pinned_events.py::test_batch_paths_match_pinned_state_and_events"
    ),
    "KmerAnalysisPhase.process_kmer": (
        "tests/test_point_vectorized.py::TestAppsBatched::test_metahipmer_matches_per_item_phase"
    ),
    "KmerAnalysisPhase.non_singleton_counts": (
        "tests/test_point_vectorized.py::TestAppsBatched::test_metahipmer_matches_per_item_phase"
    ),
    "pack_kmers": (
        "tests/test_point_vectorized.py::TestKmerVectorised"
        "::test_extract_kmers_matches_per_read_reference"
    ),
    "slots_for_count": (
        "tests/test_properties.py::TestCounterEncodingProperties::test_encoding_is_compact"
    ),
    "murmur64_unmix": (
        "tests/test_properties.py::TestHashingProperties::test_murmur_mix_is_a_bijection"
    ),
    "speedup_over": (
        "tests/test_integration.py::TestBenchmarkPipeline::test_speedup_helper_on_real_sweep"
    ),
    "matrix_matches_paper": (
        "tests/test_analysis_api_matrix.py::TestApiMatrix::test_matrix_matches_paper_table1"
    ),
    "save_shard_set": "tests/test_sharding.py::TestSnapshots::test_shard_set_round_trip_gqf",
    "load_shard_set": "tests/test_sharding.py::TestSnapshots::test_shard_set_round_trip_gqf",
    "ShardedFilter.merged": (
        "tests/test_sharding.py::TestRebalance::test_merged_grown_tcf_takes_the_journal_merge"
    ),
    "Preset.scaled": "tests/test_pipeline.py::TestPresets::test_scaled_override",
    "sharded_tcf": (
        "tests/test_sharding.py::TestDifferentialParity::test_one_shard_tcf_is_bit_exact"
    ),
    "torn_snapshot_writes": "tests/test_snapshot_robustness.py::test_kill_at_any_point_never_tears",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_public(name: str) -> bool:
    return not name.startswith("_") and not name.startswith("visit_")


def _definitions() -> list[tuple[str, str, Path, int, int]]:
    """``(qualified name, bare name, file, first line, last line)`` of every
    public definition in the package."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if not isinstance(node, _DEFS) or not _is_public(node.name):
                continue
            found.append((node.name, node.name, path, node.lineno, node.end_lineno))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, _DEFS[:2]) and _is_public(item.name):
                        qualified = f"{node.name}.{item.name}"
                        found.append((qualified, item.name, path, item.lineno, item.end_lineno))
    return found


def _reexported_constants(tree: ast.Module) -> set[int]:
    """Ids of the string constants in a module's ``__all__``."""
    ids = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            ids.update(id(c) for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    return ids


def _references() -> dict[str, list[tuple[Path, int, bool]]]:
    """Bare name -> ``(file, line, is bare name load)`` of every reference
    in the caller trees.

    Import statements are not references, so an ``__init__`` re-export
    counts only through its ``__all__`` strings, which are skipped too.
    """
    refs: dict[str, list[tuple[Path, int, bool]]] = {}
    for tree_root in CALLER_TREES:
        for path in sorted(tree_root.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            skip = _reexported_constants(tree) if path.name == "__init__.py" else set()
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    name = node.attr
                elif (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and node.value.isidentifier()
                    and id(node) not in skip
                ):
                    name = node.value
                else:
                    continue
                refs.setdefault(name, []).append(
                    (path, node.lineno, isinstance(node, ast.Name))
                )
    return refs


def _uncalled() -> dict[str, str]:
    """Qualified name -> ``file:line`` of every definition with no caller."""
    refs = _references()
    uncalled = {}
    for qualified, bare, path, first, last in _definitions():
        is_method = qualified != bare
        if not any(
            (ref_path != path or not first <= line <= last) and not (is_method and bare_name)
            for ref_path, line, bare_name in refs.get(bare, ())
        ):
            uncalled[qualified] = f"{path.relative_to(ROOT)}:{first}"
    return uncalled


def test_every_public_name_has_a_caller_or_an_oracle():
    missing = [
        f"{where} {name}" for name, where in sorted(_uncalled().items()) if name not in ORACLES
    ]
    assert not missing, "public names with no caller and no ORACLES entry:\n" + "\n".join(missing)


def test_every_oracle_entry_names_an_uncalled_definition():
    """An entry whose name is gone, or has gained a caller, is stale."""
    stale = sorted(set(ORACLES) - set(_uncalled()))
    assert not stale, f"stale ORACLES entries: {stale}"


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_oracle_test_exists_and_mentions_the_name(name):
    file_part, *scope = ORACLES[name].split("::")
    source = (ROOT / file_part).read_text(encoding="utf-8")
    body = ast.parse(source).body
    for part in scope:
        match = [node for node in body if isinstance(node, _DEFS) and node.name == part]
        assert match, f"{ORACLES[name]}: no {part!r}"
        body = match[0].body
    assert name.rpartition(".")[2] in source, f"{file_part} never uses {name}"
