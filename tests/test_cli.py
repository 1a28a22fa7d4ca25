"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_registered(self):
        parser = build_parser()
        for command in ("chat", "simulate", "sweep", "figures", "bench", "report"):
            args = parser.parse_args(
                [command] if command != "report" else [command, "--output", "x.md"]
            )
            assert args.command == command

    def test_bench_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.output == "BENCH_kernels.json"
        assert args.quick is False
        assert args.repeats is None

    def test_sched_flags_on_every_serving_command(self):
        parser = build_parser()
        for command, default in (
            ("simulate", "fifo"),
            ("sweep", "fifo"),
        ):
            args = parser.parse_args([command])
            assert args.decode_sched == default
            args = parser.parse_args([command, "--decode-sched", "fifo"])
            assert args.decode_sched == "fifo"

    @pytest.mark.parametrize(
        "argv",
        [
            ["chat", "--packing-cache", "on"],
            ["chat", "--decode-sched", "fifo"],
            ["bench", "--packing-cache", "off"],
            ["bench", "--decode-sched", "fifo"],
            ["chat", "--max-tokens", "0"],
        ],
    )
    def test_functional_server_usage_errors(self, argv):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2

    def test_invalid_sched_choice_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--decode-sched", "lifo"])

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--model", "gpt-5", "--duration", "5"])

    def test_unknown_system_rejected(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--system", "orca", "--duration", "5"])


class TestSimulate:
    def test_simulate_pensieve(self, capsys):
        rc = main(
            [
                "simulate", "--system", "pensieve", "--model", "opt-13b",
                "--rate", "2", "--duration", "40", "--seed", "3",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Pensieve" in out
        assert "throughput_rps" in out
        assert "cache" in out

    def test_page_aware_simulate_runs(self, capsys):
        rc = main(
            [
                "simulate", "--system", "pensieve", "--model", "opt-13b",
                "--rate", "2", "--duration", "40", "--seed", "3",
                "--decode-sched", "page-aware",
            ]
        )
        assert rc == 0
        assert "Pensieve" in capsys.readouterr().out

    def test_page_aware_rejected_for_stateless_systems(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "simulate", "--system", "vllm", "--duration", "5",
                    "--decode-sched", "page-aware",
                ]
            )

    def test_simulate_vllm_has_no_cache_line(self, capsys):
        rc = main(
            [
                "simulate", "--system", "vllm", "--model", "opt-13b",
                "--rate", "2", "--duration", "40",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "vLLM" in out
        assert "cache         :" not in out

    def test_fault_seed_arms_injection(self, capsys):
        rc = main(
            [
                "simulate", "--system", "pensieve", "--model", "opt-13b",
                "--rate", "2", "--duration", "40", "--seed", "3",
                "--fault-seed", "11", "--fault-rate", "0.05",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "faults        :" in out
        assert "retries" in out
        assert "degraded      :" in out

    def test_no_fault_seed_no_fault_lines(self, capsys):
        rc = main(
            [
                "simulate", "--system", "pensieve", "--model", "opt-13b",
                "--rate", "2", "--duration", "40", "--seed", "3",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "faults        :" not in out

    def test_fault_seed_rejected_for_stateless_systems(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "simulate", "--system", "vllm", "--model", "opt-13b",
                    "--rate", "2", "--duration", "20", "--fault-seed", "1",
                ]
            )

    def test_model_name_normalisation(self, capsys):
        rc = main(
            [
                "simulate", "--system", "pensieve", "--model", "LLAMA2-13B",
                "--rate", "2", "--duration", "30",
            ]
        )
        assert rc == 0
        assert "Llama 2-13B" in capsys.readouterr().out


class TestChat:
    def test_scripted_chat_writes_metrics(self, capsys, tmp_path, monkeypatch):
        from repro.obs import parse_prometheus

        lines = iter(["hello", "/stats", "/quit"])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
        out_dir = tmp_path / "chatm"
        rc = main(
            [
                "chat", "--max-tokens", "4", "--slo-ttft", "5",
                "--metrics-out", str(out_dir),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert any(line.startswith("bot> ") for line in out.splitlines())
        assert "cache stats:" in out
        parsed = parse_prometheus((out_dir / "chat_metrics.prom").read_text())
        assert parsed["repro_chat_turn_seconds_count"][()] == 1


class TestSweep:
    def test_sweep_prints_curve(self, capsys):
        rc = main(
            [
                "sweep", "--system", "tensorrt-llm", "--model", "opt-13b",
                "--rates", "1", "2", "--duration", "40",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "tensorrt-llm / OPT-13B" in out
        assert "thr(req/s)" in out


@pytest.mark.slow
class TestBench:
    def test_quick_bench_writes_json_and_passes(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "BENCH_kernels.json"
        rc = main(
            ["bench", "--quick", "--repeats", "1", "--output", str(out_path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "decode/" in out and "e2e/" in out
        payload = json.loads(out_path.read_text())
        assert payload["summary"]["all_equivalent"] is True
        assert payload["quick"] is True
        assert all(x["equivalent"] for x in payload["results"])

    def test_empty_output_skips_writing(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(["bench", "--quick", "--repeats", "1", "--output", ""])
        assert rc == 0
        assert not list(tmp_path.iterdir())


class TestFigures:
    def test_figures_prints_all(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        for label in ("Figure 3", "Figure 4", "Figure 12", "Table 2"):
            assert label in out


class TestTrace:
    def test_trace_simulate_writes_artifacts(self, capsys, tmp_path):
        import json

        out_dir = tmp_path / "traces"
        rc = main(
            [
                "trace", "simulate", "--rate", "2", "--duration", "40",
                "--seed", "3", "--out", str(out_dir),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "throughput_rps" in out
        chrome = json.loads((out_dir / "trace_simulate.chrome.json").read_text())
        events = chrome["traceEvents"]
        assert any(e["ph"] == "X" and e["name"] == "request" for e in events)
        for event in events:
            assert "ph" in event and "ts" in event and "pid" in event
        jsonl = (out_dir / "trace_simulate.jsonl").read_text().splitlines()
        assert all(json.loads(line) for line in jsonl)
        assert (out_dir / "trace_simulate.txt").read_text().startswith(
            "== trace report =="
        )

    def test_simulate_trace_out_flag(self, capsys, tmp_path):
        out_dir = tmp_path / "t"
        rc = main(
            [
                "simulate", "--system", "pensieve", "--model", "opt-13b",
                "--rate", "2", "--duration", "30", "--seed", "3",
                "--trace-out", str(out_dir),
            ]
        )
        assert rc == 0
        assert (out_dir / "trace_simulate.chrome.json").exists()
        assert (out_dir / "trace_simulate.jsonl").exists()

    @pytest.mark.slow
    def test_bench_trace_out_flag(self, capsys, tmp_path):
        import json

        out_dir = tmp_path / "b"
        rc = main(
            [
                "bench", "--quick", "--repeats", "1",
                "--output", str(tmp_path / "bench.json"),
                "--trace-out", str(out_dir),
            ]
        )
        assert rc == 0
        chrome = json.loads((out_dir / "trace_bench.chrome.json").read_text())
        names = {
            e["name"] for e in chrome["traceEvents"] if e["ph"] == "X"
        }
        assert any(name.startswith("bench.") for name in names)


class TestObservabilityCli:
    def test_slo_flags_on_serving_commands(self):
        parser = build_parser()
        for command in ("chat", "simulate", "sweep"):
            args = parser.parse_args([command])
            assert args.slo_ttft is None
            assert args.slo_tbt is None
            assert args.metrics_out is None
            args = parser.parse_args(
                [command, "--slo-ttft", "0.5", "--slo-tbt", "0.1",
                 "--metrics-out", "m"]
            )
            assert args.slo_ttft == 0.5
            assert args.slo_tbt == 0.1
            assert args.metrics_out == "m"

    def test_metrics_command_registered(self):
        args = build_parser().parse_args(["metrics"])
        assert args.command == "metrics"
        assert args.out == "metrics"
        assert args.slo_ttft is None and args.slo_tbt is None

    def test_bench_check_history_flag(self):
        assert build_parser().parse_args(["bench"]).check_history is False
        assert build_parser().parse_args(
            ["bench", "--check-history"]
        ).check_history is True

    def test_trace_summary_flags(self):
        args = build_parser().parse_args(["trace", "simulate"])
        assert args.summary is False and args.top == 10
        args = build_parser().parse_args(
            ["trace", "simulate", "--summary", "--top", "3"]
        )
        assert args.summary is True and args.top == 3

    def test_simulate_with_slo_writes_metrics_artifacts(self, capsys, tmp_path):
        import json

        out_dir = tmp_path / "m"
        rc = main(
            [
                "simulate", "--system", "pensieve", "--model", "opt-13b",
                "--rate", "2", "--duration", "40", "--seed", "3",
                "--slo-ttft", "0.5", "--slo-tbt", "0.2",
                "--metrics-out", str(out_dir),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "slo violations" in out or "flight capture" in out
        from repro.obs import parse_prometheus

        prom_text = (out_dir / "metrics.prom").read_text()
        parsed = parse_prometheus(prom_text)  # must not raise
        assert "repro_requests_completed_total" in parsed
        assert any(name.startswith("repro_ledger_") for name in parsed)
        jsonl = (out_dir / "metrics.jsonl").read_text().splitlines()
        assert json.loads(jsonl[0])["format"] == "repro-metrics-jsonl"
        assert (out_dir / "metrics_captures.jsonl").exists()

    def test_metrics_command_round_trips_snapshot(self, capsys, tmp_path):
        out_dir = tmp_path / "metrics"
        rc = main(
            [
                "metrics", "--rate", "2", "--duration", "40", "--seed", "3",
                "--slo-ttft", "0.2", "--out", str(out_dir),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "snapshot parses:" in out
        assert (out_dir / "metrics.prom").exists()
        assert (out_dir / "metrics.jsonl").exists()

    def test_trace_summary_prints_aggregate(self, capsys, tmp_path):
        rc = main(
            [
                "trace", "simulate", "--rate", "2", "--duration", "30",
                "--seed", "3", "--summary", "--top", "3",
                "--out", str(tmp_path / "t"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "== span summary ==" in out
        assert "per-span-name aggregate" in out

    @pytest.mark.slow
    def test_bench_check_history_is_non_gating(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "BENCH_kernels.json"
        # Seed a ledger whose baselines dwarf any real run: every family
        # regresses, yet the command still exits 0 (non-gating).
        history = [
            {"summary": {key: 1000.0 for key in (
                "decode_kernel_best_speedup", "prefill_kernel_best_speedup",
                "mixed_kernel_best_speedup", "e2e_best_speedup",
                "swap_best_speedup", "disk_best_speedup",
                "idle_restore_speedup", "packing_best_speedup",
                "decode_sched_speedup",
            )}}
            for _ in range(5)
        ]
        out_path.write_text(json.dumps({"history": history}))
        rc = main(
            ["bench", "--quick", "--repeats", "1", "--check-history",
             "--output", str(out_path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "bench history watchdog" in out
        assert "overall: FAIL" in out
        assert "non-gating" in out
