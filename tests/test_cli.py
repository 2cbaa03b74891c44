"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.core.config import HARLConfig
from repro.experiments.operator_suite import representative_dag
from repro.experiments.runner import compare_on_operator
from repro.hardware.target import cpu_target
from repro.serving.registry import ScheduleRegistry


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_tune_op_defaults(self):
        args = build_parser().parse_args(["tune-op"])
        assert args.op == "GEMM-L"
        assert args.scheduler == "harl"
        assert args.target == "cpu"

    def test_unknown_operator_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tune-op", "--op", "GEMM-XL"])

    @pytest.mark.parametrize("flag", [("--trials", "0"), ("--scale", "0"), ("--scale", "1.5")])
    @pytest.mark.parametrize("command", [
        ["tune-op"], ["tune-network"], ["network", "tune"], ["compare"],
        ["serve"], ["sweep"], ["metrics"], ["trace"],
    ])
    def test_out_of_range_trials_and_scale_are_usage_errors(self, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([*command, *flag])
        assert exc.value.code == 2


class TestCommands:
    def test_tune_op_harl(self, capsys):
        code = main([
            "tune-op", "--op", "GEMM-S", "--trials", "8", "--scale", "0.05",
            "--scheduler", "harl", "--show-program",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "gemm" in out
        assert "for " in out  # lowered program printed

    def test_tune_op_ansor(self, capsys):
        code = main(["tune-op", "--op", "GEMM-S", "--trials", "8", "--scale", "0.05",
                     "--scheduler", "ansor"])
        assert code == 0
        assert "ansor" in capsys.readouterr().out

    def test_tune_op_autotvm(self, capsys):
        code = main(["tune-op", "--op", "GEMM-S", "--trials", "8", "--scale", "0.05",
                     "--scheduler", "autotvm"])
        assert code == 0
        assert "autotvm" in capsys.readouterr().out

    def test_compare(self, capsys):
        code = main(["compare", "--op", "GEMM-S", "--trials", "8", "--scale", "0.05"])
        out = capsys.readouterr().out
        assert code == 0
        assert "harl" in out and "ansor" in out

    def test_tune_network(self, capsys):
        code = main([
            "tune-network", "--network", "bert", "--trials", "90", "--scale", "0.05",
            "--scheduler", "harl",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "bert_base_b1" in out
        assert "end-to-end latency" in out


class TestMeasurementPipelineFlags:
    def test_records_out_and_resume(self, capsys, tmp_path):
        from repro.records import RecordStore

        log = tmp_path / "records.jsonl"
        base = ["tune-op", "--op", "GEMM-S", "--trials", "8", "--scale", "0.05"]
        assert main(base + ["--records-out", str(log)]) == 0
        capsys.readouterr()
        store = RecordStore.load(log)
        assert len(store.query(kind="measure")) == 8
        assert len(store.query(kind="result")) == 1

        assert main(base + ["--resume-from", str(log),
                            "--records-out", str(log)]) == 0
        assert len(RecordStore.load(log).query(kind="measure")) == 16

    def test_compare_records_dir(self, capsys, tmp_path):
        from repro.records import RecordStore

        code = main(["compare", "--op", "GEMM-S", "--trials", "8", "--scale", "0.05",
                     "--records-out", str(tmp_path / "cmp")])
        assert code == 0
        for name in ("harl", "ansor"):
            store = RecordStore.load(tmp_path / "cmp" / f"{name}.jsonl")
            assert len(store.query(kind="measure")) == 8
            assert len(store.query(kind="result")) == 1  # final result line lands in the log

    def test_resume_works_for_baseline_schedulers(self, capsys, tmp_path):
        log = tmp_path / "ansor.jsonl"
        base = ["tune-op", "--op", "GEMM-S", "--trials", "8", "--scale", "0.05",
                "--scheduler", "ansor"]
        assert main(base + ["--records-out", str(log)]) == 0
        first = capsys.readouterr().out
        assert main(base + ["--resume-from", str(log)]) == 0
        second = capsys.readouterr().out

        def best_latency(out):
            return float(out.splitlines()[2].split()[2])

        # the resumed run starts from the recorded best, so it cannot regress
        assert best_latency(second) <= best_latency(first)

    def test_resume_from_missing_file_clean_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["tune-op", "--op", "GEMM-S", "--trials", "8",
                  "--resume-from", "does-not-exist.jsonl"])
        assert excinfo.value.code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_resume_from_only_where_it_is_read(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--resume-from", "x.jsonl"])
        assert excinfo.value.code == 2
        assert "--resume-from" in capsys.readouterr().err


class TestServingCommands:
    def test_serve_demo_then_registry_hits(self, capsys, tmp_path):
        registry = tmp_path / "registry"
        base = ["serve", "--trials", "8", "--scale", "0.05",
                "--registry", str(registry)]
        assert main(base) == 0
        first = capsys.readouterr().out
        assert "coalesced" in first  # duplicate demo GEMMs share one job
        assert "jobs created: 2" in first

        assert main(base) == 0  # second run answers everything from disk
        second = capsys.readouterr().out
        assert "registry-hit" in second
        assert "jobs created: 0" in second

    def test_serve_requests_file(self, capsys, tmp_path):
        import json as json_mod

        requests = tmp_path / "requests.json"
        requests.write_text(json_mod.dumps([
            {"op": "GEMM-S", "batch": 1, "trials": 8, "tenant": "t1"},
            {"op": "GEMM-S", "batch": 1, "trials": 8, "tenant": "t2"},
        ]))
        code = main(["serve", "--scale", "0.05", "--requests", str(requests)])
        out = capsys.readouterr().out
        assert code == 0
        assert "t1" in out and "t2" in out
        assert "coalesced" in out

    def test_tune_op_registry_roundtrip_and_query(self, capsys, tmp_path):
        registry = tmp_path / "registry"
        base = ["tune-op", "--op", "GEMM-S", "--trials", "8", "--scale", "0.05",
                "--registry", str(registry)]
        assert main(base) == 0
        capsys.readouterr()

        assert main(["query", "--registry", str(registry), "--op", "GEMM-S"]) == 0
        out = capsys.readouterr().out
        assert "exact hit" in out and "none" not in out.split("exact hit")[1].split("\n")[0]

        assert main(["query", "--registry", str(registry), "--op", "C2D"]) == 0
        out = capsys.readouterr().out
        assert "exact hit:   none" in out
        assert "nearest relative" in out  # the GEMM entry is offered as relative

    def test_compare_registry_is_closed_with_the_best_result(self, capsys, tmp_path):
        registry = tmp_path / "registry"
        assert main(["compare", "--op", "GEMM-S", "--trials", "8", "--scale", "0.05",
                     "--registry", str(registry)]) == 0
        dag = representative_dag("GEMM-S")
        comparison = compare_on_operator(dag, 8, config=HARLConfig.scaled(0.05),
                                         schedulers=("ansor", "harl"))
        best = min(r.best_latency for r in comparison.results.values())
        assert ScheduleRegistry(registry).lookup(dag, cpu_target(), k=0).entry.latency == best

    def test_registry_maintenance_commands(self, capsys, tmp_path):
        registry = tmp_path / "registry"
        assert main(["tune-op", "--op", "GEMM-S", "--trials", "8",
                     "--scale", "0.05", "--registry", str(registry)]) == 0
        capsys.readouterr()

        assert main(["registry", "stats", "--registry", str(registry)]) == 0
        assert "entries: 1" in capsys.readouterr().out.replace(" ", " ")

        export = tmp_path / "export.jsonl"
        assert main(["registry", "export", "--registry", str(registry),
                     "--file", str(export)]) == 0
        capsys.readouterr()
        assert export.exists()

        fresh = tmp_path / "fresh"
        assert main(["registry", "import", "--registry", str(fresh),
                     "--file", str(export)]) == 0
        assert "imported 1" in capsys.readouterr().out

        assert main(["registry", "compact", "--registry", str(registry)]) == 0
        assert "compacted" in capsys.readouterr().out

    def test_registry_export_requires_file(self, capsys, tmp_path):
        assert main(["registry", "export",
                     "--registry", str(tmp_path / "r")]) == 2
        assert "--file" in capsys.readouterr().err


class TestTargetCommands:
    def test_targets_list_shows_all_presets(self, capsys):
        from repro.hardware.catalog import default_catalog

        assert main(["targets", "list"]) == 0
        out = capsys.readouterr().out
        names = default_catalog().names()
        assert len(names) >= 10
        for name in names:
            assert name in out

    def test_targets_describe(self, capsys):
        assert main(["targets", "describe", "rpi4-a72"]) == 0
        out = capsys.readouterr().out
        assert "num_cores: 4" in out
        assert "embedding" in out
        assert "nearest target" in out

    def test_targets_describe_requires_name(self, capsys):
        assert main(["targets", "describe"]) == 2
        assert "name" in capsys.readouterr().err

    def test_targets_describe_unknown_name(self, capsys):
        assert main(["targets", "describe", "abacus-9000"]) == 2
        assert "known" in capsys.readouterr().err

    def test_tune_op_accepts_catalog_target(self, capsys):
        code = main(["tune-op", "--op", "GEMM-S", "--trials", "8",
                     "--scale", "0.05", "--target", "epyc-7543"])
        assert code == 0
        assert "gemm" in capsys.readouterr().out

    def test_unknown_target_clean_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["tune-op", "--op", "GEMM-S", "--trials", "8",
                  "--target", "abacus-9000"])
        assert excinfo.value.code == 2
        assert "known targets" in capsys.readouterr().err


class TestSweepCommand:
    def test_sweep_prints_report_and_writes_csv(self, capsys, tmp_path):
        report = tmp_path / "sweep.csv"
        code = main(["sweep", "--targets", "xeon-6226r,epyc-7543",
                     "--ops", "GEMM-S", "--trials", "8", "--scale", "0.05",
                     "--report", str(report)])
        out = capsys.readouterr().out
        assert code == 0
        assert "xeon-6226r" in out and "epyc-7543" in out
        assert "% roofline" in out
        # The second target's runs transfer from the first.
        assert "warm-started across targets" in out
        assert report.exists()
        assert "warm-started from" in report.read_text().splitlines()[0]

    def test_sweep_populates_registry(self, capsys, tmp_path):
        registry = tmp_path / "registry"
        assert main(["sweep", "--targets", "xeon-6226r,epyc-7543",
                     "--ops", "GEMM-S", "--trials", "8", "--scale", "0.05",
                     "--registry", str(registry)]) == 0
        capsys.readouterr()
        assert main(["registry", "stats", "--registry", str(registry)]) == 0
        out = capsys.readouterr().out
        assert "entries: 2" in out

    def test_sweep_rejects_unknown_op(self, capsys):
        assert main(["sweep", "--ops", "GEMM-XXL", "--trials", "8"]) == 2
        assert "operator class" in capsys.readouterr().err

    def test_sweep_honors_single_target_flag(self, capsys):
        # Regression: --target (without --targets) sweeps exactly that target.
        code = main(["sweep", "--target", "epyc-7543", "--ops", "GEMM-S",
                     "--trials", "8", "--scale", "0.05"])
        out = capsys.readouterr().out
        assert code == 0
        assert "epyc-7543" in out
        assert "xeon-6226r" not in out and "rtx-3090" not in out


class TestNetworkCommand:
    def test_network_list(self, capsys):
        assert main(["network", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("bert", "resnet50", "mobilenet_v2"):
            assert name in out
        assert "subgraphs" in out

    def test_network_tune_then_registry_hits(self, capsys, tmp_path):
        registry = tmp_path / "registry"
        base = ["network", "tune", "--network", "resnet50", "--trials", "120",
                "--scale", "0.05", "--registry", str(registry)]
        assert main(base) == 0
        first = capsys.readouterr().out
        assert "end-to-end f(S)" in first
        assert "inf" not in first.split("end-to-end f(S)")[1]  # finite f(S)
        assert "registry hits" in first

        # Second run on the same registry answers every task in O(1).
        assert main(base) == 0
        second = capsys.readouterr().out
        assert "registry-hit" in second
        assert "(0 trials, 0 jobs" in second

    def test_network_tune_catalog_target_and_json(self, capsys, tmp_path):
        import json as json_mod

        out_json = tmp_path / "report.json"
        assert main(["network", "tune", "--network", "resnet50",
                     "--target", "epyc-7543", "--trials", "120",
                     "--scale", "0.05", "--policy", "gradient",
                     "--json", str(out_json)]) == 0
        out = capsys.readouterr().out
        assert "epyc-7543" in out and "policy=gradient" in out
        data = json_mod.loads(out_json.read_text())
        assert data["target"] == "epyc-7543"
        assert data["final_latency"] < float("inf")
        assert len(data["tasks"]) == 22

    def test_cross_network_warm_start_hits(self, capsys, tmp_path):
        registry = tmp_path / "registry"
        assert main(["network", "tune", "--network", "resnet50",
                     "--trials", "120", "--scale", "0.05",
                     "--registry", str(registry)]) == 0
        capsys.readouterr()
        assert main(["network", "tune", "--network", "mobilenet_v2",
                     "--trials", "200", "--scale", "0.05",
                     "--registry", str(registry)]) == 0
        out = capsys.readouterr().out
        # MobileNet's conv tasks warm-start from the ResNet entries.
        assert "warm:" in out or "transfer:" in out
        assert "resnet" in out.split("warm-started from")[1]

    def test_network_report_coverage(self, capsys, tmp_path):
        registry = tmp_path / "registry"
        assert main(["network", "tune", "--network", "resnet50",
                     "--trials", "120", "--scale", "0.05",
                     "--registry", str(registry)]) == 0
        capsys.readouterr()
        assert main(["network", "report", "--network", "resnet50",
                     "--registry", str(registry)]) == 0
        out = capsys.readouterr().out
        assert "registry coverage" in out
        assert "fully covered" in out

        assert main(["network", "report", "--network", "bert",
                     "--registry", str(registry)]) == 0
        out = capsys.readouterr().out
        assert "0/10 tasks covered" in out

    def test_network_report_requires_registry(self, capsys):
        assert main(["network", "report", "--network", "resnet50"]) == 2
        assert "--registry" in capsys.readouterr().err


class TestNetworkSweepCommand:
    def test_sweep_networks_prints_and_saves(self, capsys, tmp_path):
        report = tmp_path / "networks.csv"
        registry = tmp_path / "registry"
        code = main(["sweep", "--networks", "resnet50",
                     "--targets", "xeon-6226r,epyc-7543", "--trials", "120",
                     "--scale", "0.05", "--registry", str(registry),
                     "--report", str(report)])
        out = capsys.readouterr().out
        assert code == 0
        assert "network fleet sweep" in out
        assert "xeon-6226r" in out and "epyc-7543" in out
        assert "reused registry knowledge" in out
        assert report.exists()
        assert "f(S) (ms)" in report.read_text().splitlines()[0]

    def test_sweep_rejects_unknown_network(self, capsys):
        assert main(["sweep", "--networks", "alexnet", "--trials", "8"]) == 2
        assert "unknown network" in capsys.readouterr().err
