"""CLI entry points for the observability layer: repro metrics / repro trace."""

import json

from repro.cli import main


class TestMetricsCommand:
    def test_summary_reports_hit_rate_and_latency(self, capsys):
        code = main(["metrics", "--trials", "6", "--scale", "0.1"])
        out = capsys.readouterr().out
        assert code == 0
        # Human summary: service counters, registry hit rate, percentiles.
        assert "requests:" in out
        assert "registry hits:" in out
        assert "hit rate" in out
        assert "submit→finish:" in out and "p95=" in out
        # Full Prometheus exposition follows the summary.
        assert "# TYPE repro_service_requests_total counter" in out
        assert "repro_service_submit_to_finish_seconds_bucket" in out

    def test_json_format_is_a_snapshot(self, capsys):
        code = main(["metrics", "--trials", "6", "--scale", "0.1",
                     "--format", "json"])
        assert code == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["schema"] == "repro-metrics/1"
        assert snap["counters"]["service.requests"] >= 1
        assert snap["histograms"]["service.submit_to_finish_seconds"]["count"] >= 1

    def test_prometheus_format(self, capsys):
        code = main(["metrics", "--no-demo", "--format", "prometheus"])
        assert code == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_service_requests_total counter" in out

    def test_no_demo_skips_tuning(self, capsys):
        code = main(["metrics", "--no-demo"])
        out = capsys.readouterr().out
        assert code == 0
        assert "requests:      0" in out


class TestTraceCommand:
    def test_writes_nested_jsonl_trace_tree(self, capsys, tmp_path):
        path = tmp_path / "trace.jsonl"
        code = main(["trace", "--trials", "6", "--scale", "0.1",
                     "--output", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        records = [json.loads(line) for line in path.read_text().splitlines()]
        rounds = [r for r in records if r.get("name") == "service.round"]
        assert rounds
        assert all(r["attrs"]["trials"] > 0 for r in rounds)
        # The rendered tree shows the round and finish spans.
        assert "service.round" in out and "service.finish" in out

    def test_jsonl_to_stdout_without_output(self, capsys):
        code = main(["trace", "--trials", "6", "--scale", "0.1"])
        out = capsys.readouterr().out
        assert code == 0
        assert '"kind": "span"' in out
        assert "service.finish" in out


class TestMetricsOutFlag:
    def test_serve_writes_snapshot_artifact(self, capsys, tmp_path):
        path = tmp_path / "metrics.json"
        code = main(["serve", "--trials", "6", "--scale", "0.05",
                     "--metrics-out", str(path)])
        assert code == 0
        snap = json.loads(path.read_text())
        assert snap["schema"] == "repro-metrics/1"
        assert snap["counters"]["service.requests"] >= 1
