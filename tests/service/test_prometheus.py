"""Prometheus text-exposition rendering of stats snapshots.

Metric names are stable API, so these tests pin exact lines: HELP/TYPE
headers, label escaping, counter-vs-gauge kinds, and the sparse-dict
contract (a snapshot without a section renders no metrics for it,
never an error).
"""

from repro.service import SolveServer, render_prometheus


def _lines(text):
    return text.splitlines()


class TestRenderPrometheus:
    def test_full_snapshot_renders_expected_families(self):
        stats = {
            "address": "127.0.0.1:7777",
            "workers": 2,
            "pending": 3,
            "broker": {"submitted": 10, "completed": 9},
            "service": {"requests": 10, "peer_hits": 2},
            "gateway": {"calls": 5, "retries": 1},
            "gateway_mode": "live",
            "stages": {"spec": {"runs": 4, "seconds": 1.25}},
            "ring": {"self": "127.0.0.1:7777", "members": ["127.0.0.1:7777"]},
            "caches": {
                "simulation": {
                    "entries": 12,
                    "hits": 30,
                    "tiers": [
                        {"kind": "memory", "detail": "", "hits": 30},
                    ],
                },
            },
        }
        text = render_prometheus(stats)
        lines = _lines(text)
        assert (
            'repro_info{address="127.0.0.1:7777",gateway_mode="live"} 1'
            in lines
        )
        assert "# TYPE repro_info gauge" in lines
        assert "repro_workers 2" in lines
        assert "repro_pending_jobs 3" in lines
        assert "# TYPE repro_broker_submitted counter" in lines
        assert "repro_broker_submitted 10" in lines
        assert "repro_service_peer_hits 2" in lines
        assert "repro_gateway_calls 5" in lines
        assert 'repro_stage_runs_total{stage="spec"} 4' in lines
        assert 'repro_stage_seconds_total{stage="spec"} 1.25' in lines
        assert "repro_ring_members 1" in lines
        assert 'repro_cache_entries{layer="simulation"} 12' in lines
        assert "# TYPE repro_cache_entries gauge" in lines
        assert "# TYPE repro_cache_hits counter" in lines
        assert (
            'repro_cache_tier_hits{layer="simulation",tier="memory",'
            'detail=""} 30'
        ) in lines
        assert text.endswith("\n")

    def test_help_precedes_type_precedes_samples(self):
        text = render_prometheus({"workers": 1})
        lines = _lines(text)
        idx = lines.index("# TYPE repro_workers gauge")
        assert lines[idx - 1].startswith("# HELP repro_workers ")
        assert lines[idx + 1] == "repro_workers 1"

    def test_label_values_are_escaped(self):
        text = render_prometheus(
            {"stages": {'we"ird\nstage\\': {"runs": 1, "seconds": 0.5}}}
        )
        assert (
            'repro_stage_runs_total{stage="we\\"ird\\nstage\\\\"} 1'
            in _lines(text)
        )

    def test_sparse_snapshot_skips_absent_sections(self):
        text = render_prometheus({})
        assert "repro_info 1" in _lines(text)  # identity always renders
        for family in (
            "repro_broker_",
            "repro_gateway_",
            "repro_ring_",
            "repro_cache_",
            "repro_stage_",
        ):
            assert family not in text

    def test_non_numeric_and_bool_values_are_skipped(self):
        text = render_prometheus(
            {"service": {"requests": 1, "name": "solver", "busy": True}}
        )
        lines = _lines(text)
        assert "repro_service_requests 1" in lines
        assert "repro_service_name" not in text
        assert "repro_service_busy" not in text

    def test_live_server_snapshot_round_trips(self):
        """The renderer consumes a real ``stats_snapshot()`` as-is."""
        with SolveServer(workers=1) as server:
            text = render_prometheus(server.stats_snapshot())
        lines = _lines(text)
        assert "repro_workers 1" in lines
        assert "repro_service_executed 0" in lines
        assert "repro_ring_members 1" in lines
        assert 'repro_cache_entries{layer="simulation"} 0' in lines

    def test_retired_scheduler_sections_render_nothing(self):
        """A snapshot that still carries the deleted scheduler's
        sections (as an older server reports them) renders the families
        this server knows and nothing for the rest."""
        stats = {
            "workers": 2,
            "rollout_batch": 4,
            "scheduler": {
                "dedup": {"submitted": 40, "executed": 30},
                "speculation": {"launched": 6, "used": 5},
            },
            "steal": {"published": 8, "claimed": 2, "peers": ["x"]},
        }
        text = render_prometheus(stats)
        assert "repro_workers 2" in _lines(text)
        for family in (
            "repro_rollout_batch",
            "repro_scheduler_",
            "repro_speculation_",
            "repro_steal_",
        ):
            assert family not in text

    def test_live_server_reports_no_scheduler_sections(self):
        with SolveServer(workers=1) as server:
            stats = server.stats_snapshot()
        assert not {"rollout_batch", "scheduler", "steal"} & set(stats)
        assert not [
            name for name in stats["service"] if name.startswith("steal")
        ]
