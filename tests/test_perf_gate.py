"""Tests for the perf-trajectory gate (``repro check --perf``)."""

from __future__ import annotations

import json

import pytest

from repro.pipeline.perf import DEFAULT_SLACK, check_perf


def point_snapshot(preset="smoke", insert_s=0.01, query_s=0.01):
    return {
        "preset": preset,
        "n_inserts": 10_000,
        "n_queries": 5_000,
        "n_kmers": 20_000,
        "timings": {
            "gqf_point_insert_s": insert_s,
            "gqf_point_query_s": query_s,
            "kmer_extract_s": 0.002,
        },
    }


def sharding_snapshot(preset="smoke", rate=1_000_000.0):
    return {
        "preset": preset,
        "curve": [
            {"n_shards": 1, "insert_rate": rate, "query_rate": rate * 2},
            {"n_shards": 2, "insert_rate": rate * 1.5, "query_rate": rate * 2},
        ],
    }


def write(directory, name, doc):
    directory.mkdir(parents=True, exist_ok=True)
    (directory / name).write_text(json.dumps(doc))


@pytest.fixture()
def dirs(tmp_path):
    return tmp_path / "fresh", tmp_path / "baseline"


class TestCheckPerf:
    def test_passes_when_rates_hold(self, dirs):
        fresh, baseline = dirs
        write(fresh, "BENCH_POINT.json", point_snapshot())
        write(fresh, "BENCH_SHARDING.json", sharding_snapshot())
        write(baseline, "BENCH_POINT.json", point_snapshot())
        write(baseline, "BENCH_SHARDING.json", sharding_snapshot())
        lines = []
        assert check_perf(fresh, baseline, log=lines.append) == 0
        assert any("metric(s) hold" in line for line in lines)

    def test_fails_on_order_of_magnitude_regression(self, dirs):
        fresh, baseline = dirs
        # 10x slower than baseline: well past the 3x slack.
        write(fresh, "BENCH_POINT.json", point_snapshot(insert_s=0.1))
        write(baseline, "BENCH_POINT.json", point_snapshot(insert_s=0.01))
        lines = []
        assert check_perf(fresh, baseline, log=lines.append) == 1
        assert any("FAIL" in line and "gqf_point_insert" in line for line in lines)

    def test_jitter_within_slack_passes(self, dirs):
        fresh, baseline = dirs
        write(fresh, "BENCH_POINT.json", point_snapshot(insert_s=0.02))
        write(baseline, "BENCH_POINT.json", point_snapshot(insert_s=0.01))
        assert check_perf(fresh, baseline, log=lambda _line: None) == 0

    def test_missing_baseline_file_fails(self, dirs):
        fresh, baseline = dirs
        write(fresh, "BENCH_POINT.json", point_snapshot())
        baseline.mkdir()
        lines = []
        assert check_perf(fresh, baseline, log=lines.append) == 1
        assert any("no committed baseline" in line for line in lines)

    def test_missing_fresh_artifact_is_skipped(self, dirs):
        fresh, baseline = dirs
        fresh.mkdir()
        write(fresh, "BENCH_POINT.json", point_snapshot())
        write(baseline, "BENCH_POINT.json", point_snapshot())
        assert check_perf(fresh, baseline, log=lambda _line: None) == 0

    def test_preset_mismatch_fails(self, dirs):
        fresh, baseline = dirs
        write(fresh, "BENCH_POINT.json", point_snapshot(preset="paper"))
        write(baseline, "BENCH_POINT.json", point_snapshot(preset="smoke"))
        lines = []
        assert check_perf(fresh, baseline, log=lines.append) == 1
        assert any("no history at preset" in line for line in lines)

    def test_history_documents_compare_against_the_median(self, dirs):
        fresh, baseline = dirs
        write(fresh, "BENCH_POINT.json", point_snapshot(insert_s=0.02))
        write(
            baseline,
            "BENCH_POINT.json",
            {
                "history": [
                    point_snapshot(insert_s=0.01),
                    point_snapshot(insert_s=0.012),
                    point_snapshot(insert_s=0.014),
                    point_snapshot(preset="default", insert_s=0.001),
                ]
            },
        )
        # Median of the three smoke entries is 0.012s; 0.02s is within 3x.
        # The much faster default-preset entry must not tighten the floor.
        assert check_perf(fresh, baseline, log=lambda _line: None) == 0

    def test_new_metric_without_history_is_skipped(self, dirs):
        fresh, baseline = dirs
        fresh_doc = point_snapshot()
        fresh_doc["timings"]["new_path_s"] = 0.001
        write(fresh, "BENCH_POINT.json", fresh_doc)
        write(baseline, "BENCH_POINT.json", point_snapshot())
        lines = []
        assert check_perf(fresh, baseline, log=lines.append) == 0
        assert any("new" in line and "new_path" in line for line in lines)

    def test_nothing_comparable_fails(self, dirs):
        fresh, baseline = dirs
        fresh.mkdir()
        baseline.mkdir()
        lines = []
        assert check_perf(fresh, baseline, log=lines.append) == 1
        assert any("no metric could be compared" in line for line in lines)

    def test_slack_env_override(self, dirs, monkeypatch):
        fresh, baseline = dirs
        write(fresh, "BENCH_POINT.json", point_snapshot(insert_s=0.02))
        write(baseline, "BENCH_POINT.json", point_snapshot(insert_s=0.01))
        monkeypatch.setenv("REPRO_PERF_SLACK", "1.5")
        assert check_perf(fresh, baseline, log=lambda _line: None) == 1
        monkeypatch.setenv("REPRO_PERF_SLACK", "garbage")
        assert check_perf(fresh, baseline, log=lambda _line: None) == 0

    def test_sharding_best_rate_tracks_the_whole_curve(self, dirs):
        fresh, baseline = dirs
        # 1-shard rate holds, but the scaled rate collapsed: the
        # sharding_insert_best metric must catch it.
        fresh_doc = sharding_snapshot()
        fresh_doc["curve"][1]["insert_rate"] = 1.0
        fresh_doc["curve"][1]["query_rate"] = 1.0
        write(fresh, "BENCH_SHARDING.json", fresh_doc)
        write(
            baseline,
            "BENCH_SHARDING.json",
            {"history": [sharding_snapshot(rate=3_000_000.0)]},
        )
        lines = []
        assert check_perf(fresh, baseline, log=lines.append) == 1
        assert any(
            "FAIL" in line and "sharding_insert_best" in line for line in lines
        )


class TestCliIntegration:
    def test_check_perf_flag_gates_the_exit_code(self, tmp_path, capsys):
        from repro.pipeline.cli import main

        fresh = tmp_path / "fresh"
        baseline = tmp_path / "baseline"
        write(fresh, "BENCH_POINT.json", point_snapshot(insert_s=0.5))
        write(baseline, "BENCH_POINT.json", point_snapshot(insert_s=0.01))
        status = main(
            [
                "check",
                "--results-dir",
                str(fresh),
                "--perf",
                "--perf-baseline-dir",
                str(baseline),
            ]
        )
        assert status != 0
        out = capsys.readouterr().out
        assert "perf trajectory" in out
        assert "FAIL" in out and "gqf_point_insert" in out

    def test_default_slack_is_loose(self):
        assert DEFAULT_SLACK >= 3.0
