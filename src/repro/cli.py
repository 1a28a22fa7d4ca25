"""Command-line interface.

Run as ``python -m repro <command>``:

- ``chat``      — interactive stateful chat against the functional server;
- ``simulate``  — one serving-simulation run, printing latency/throughput
  and cache statistics;
- ``sweep``     — a latency–throughput curve for one system;
- ``figures``   — the fast analytical figures (3, 4, 12) and Table 2;
- ``report``    — regenerate EXPERIMENTS.md (slow: full serving sweeps);
- ``bench``     — the kernel/forward-pass performance harness: times the
  vectorized layer against the per-request reference kernels, writes
  ``BENCH_kernels.json``, exits non-zero if outputs diverge;
- ``trace``     — run an experiment with full telemetry and export the
  trace (Chrome trace JSON, JSONL event log, text report);
- ``metrics``   — one serving run with the SLO observability layer armed:
  writes a Prometheus text snapshot (self-reconciling against the
  engine/PCIe/NVMe ledgers), a periodic JSONL metrics stream and the
  flight-recorder captures of every SLO-violating or failed request.

``simulate`` and ``bench`` also accept ``--trace-out DIR`` to record the
same telemetry alongside their normal output; ``simulate`` / ``sweep`` /
``chat`` accept ``--slo-ttft`` / ``--slo-tbt`` / ``--metrics-out`` to arm
the SLO layer, and ``bench --check-history`` compares the run against the
``BENCH_kernels.json`` history ledger (non-gating regression watchdog).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.model.config import PAPER_MODELS, ModelConfig


def _model(name: str) -> ModelConfig:
    lookup = {cfg.name.lower().replace(" ", ""): cfg for cfg in PAPER_MODELS.values()}
    key = name.lower().replace(" ", "").replace("_", "-")
    if key not in lookup:
        raise SystemExit(
            f"unknown model {name!r}; choose from {sorted(lookup)}"
        )
    return lookup[key]


def _fault_plan(args: argparse.Namespace):
    """Build a FaultPlan from ``--fault-seed`` / ``--fault-rate`` (or None)."""
    if getattr(args, "fault_seed", None) is None:
        return None
    from repro.faults import SITES, FaultPlan, FaultSite

    rate = args.fault_rate
    if not 0.0 <= rate <= 1.0:
        raise SystemExit(f"--fault-rate must be in [0, 1], got {rate}")
    # Every declared site is armed, scaled by its registry rate_scale
    # (corruption-style sites run quieter than transfer-style sites).
    # Disk-tier sites are only drawn when --disk-tokens configures a
    # disk tier, harmless otherwise.
    return FaultPlan(
        seed=args.fault_seed,
        rates={
            FaultSite(name): rate * spec.rate_scale
            for name, spec in SITES.items()
        },
    )


def _engine_factory(system: str, config: ModelConfig, fault_plan=None,
                    disk_tokens: int = 0, decode_sched: str = "fifo"):
    from repro.core.engine import PensieveEngine
    from repro.gpu.device import A100_80GB
    from repro.serving.stateless import make_tensorrt_llm, make_vllm

    system = system.lower()
    stateful = ("pensieve", "pensieve-gpu", "pensieve-gpu-cache")
    if fault_plan is not None and system not in stateful:
        raise SystemExit(
            "--fault-seed requires a stateful system (pensieve, pensieve-gpu)"
        )
    if disk_tokens and system not in stateful:
        raise SystemExit(
            "--disk-tokens requires a stateful system (pensieve, pensieve-gpu)"
        )
    if decode_sched != "fifo" and system not in stateful:
        raise SystemExit(
            "--decode-sched requires a stateful system (pensieve, pensieve-gpu)"
        )
    if system == "vllm":
        return lambda loop: make_vllm(loop, config, A100_80GB)
    if system in ("trt", "tensorrt", "tensorrt-llm"):
        return lambda loop: make_tensorrt_llm(loop, config, A100_80GB)
    if system == "pensieve":
        return lambda loop: PensieveEngine(
            loop, config, A100_80GB, fault_plan=fault_plan,
            disk_cache_tokens=disk_tokens, decode_sched=decode_sched,
        )
    if system in ("pensieve-gpu", "pensieve-gpu-cache"):
        return lambda loop: PensieveEngine(
            loop, config, A100_80GB, cpu_cache_tokens=0,
            fault_plan=fault_plan, disk_cache_tokens=disk_tokens,
            decode_sched=decode_sched,
        )
    raise SystemExit(
        f"unknown system {system!r}; choose from vllm, tensorrt-llm, "
        "pensieve, pensieve-gpu"
    )


def _make_tracer(args: argparse.Namespace):
    """A recording tracer when ``--trace-out`` was given, else None."""
    if not getattr(args, "trace_out", None):
        return None
    from repro.obs import Tracer

    return Tracer()


def _write_trace(tracer, outdir: str, prefix: str = "trace") -> None:
    from repro.obs import write_trace_artifacts

    paths = write_trace_artifacts(tracer, outdir, prefix=prefix)
    for kind in sorted(paths):
        print(f"trace [{kind:6s}]: {paths[kind]}")


def _slo_config(args: argparse.Namespace):
    """A SloConfig when any SLO/metrics flag was given, else None.

    ``--metrics-out`` alone arms the metrics layer with no objectives
    (histograms and the flight recorder record; nothing can violate).
    """
    ttft = getattr(args, "slo_ttft", None)
    tbt = getattr(args, "slo_tbt", None)
    if ttft is None and tbt is None and not getattr(args, "metrics_out", None):
        return None
    from repro.obs import SloConfig

    return SloConfig(ttft=ttft, tbt=tbt)


def _make_sampler(args: argparse.Namespace):
    """A MetricsSampler bounded by the run duration (``--metrics-out``
    runs only; ~100 rows regardless of duration)."""
    if not getattr(args, "metrics_out", None):
        return None
    from repro.obs import MetricsSampler

    duration = getattr(args, "duration", 0.0) or 0.0
    return MetricsSampler(
        interval=max(duration / 100.0, 1e-3), horizon=duration or None
    )


def _print_slo_summary(collector) -> None:
    """Attribution table + SLO/capture counts for an armed collector."""
    from repro.obs import tier_attribution_table

    table = tier_attribution_table(
        collector.hist, title="-- latency attribution (sim seconds) --"
    )
    if table:
        print(table)
    report = collector.slo_report()
    if report["slo"] is not None:
        print(f"slo           : {report['slo']}")
        print(
            f"slo violations: {report['violations_by_kind']} "
            f"({report['violated_requests']} requests)"
        )
    print(
        f"flight capture: {report['captures']} timelines "
        f"({report['dropped_captures']} dropped, "
        f"{report['failed_requests']} failed requests)"
    )


def _write_metrics(engine, outdir: str, sampler=None,
                   prefix: str = "metrics") -> None:
    """Write the metrics artifacts: Prometheus snapshot (embedding the
    ledger counters so it is self-reconciling), sampler JSONL, and the
    flight-recorder capture dump."""
    import os

    from repro.obs import ledger_counters, prometheus_snapshot

    os.makedirs(outdir, exist_ok=True)
    prom_path = os.path.join(outdir, f"{prefix}.prom")
    with open(prom_path, "w", encoding="utf-8") as fh:
        fh.write(
            prometheus_snapshot(
                collector=engine.metrics, counters=ledger_counters(engine)
            )
        )
    print(f"metrics [prom   ]: {prom_path}")
    if sampler is not None:
        jsonl_path = os.path.join(outdir, f"{prefix}.jsonl")
        sampler.write_jsonl(jsonl_path)
        print(f"metrics [jsonl  ]: {jsonl_path}")
    flight = engine.metrics.flight
    if flight.enabled:
        cap_path = os.path.join(outdir, f"{prefix}_captures.jsonl")
        flight.dump_captures(cap_path)
        print(f"metrics [flight ]: {cap_path}")


def cmd_chat(args: argparse.Namespace) -> int:
    import time as _time

    from repro.core.server import StatefulChatServer
    from repro.model.config import tiny_llama_config, tiny_opt_config

    config = tiny_llama_config() if args.arch == "llama" else tiny_opt_config()
    server = StatefulChatServer(
        config,
        gpu_capacity_tokens=args.gpu_tokens,
        cpu_capacity_tokens=args.cpu_tokens,
        disk_capacity_tokens=args.disk_tokens,
        seed=args.seed,
    )
    if args.system_prompt:
        server.set_system_prompt(args.system_prompt)

    # Chat is a real (functional) server, so SLO metrics run on the WALL
    # clock: --slo-ttft bounds the whole turn, --slo-tbt the per-token
    # mean over the turn's max_new_tokens.
    slo = _slo_config(args)
    hist = None
    violations = {"ttft": 0, "tbt": 0}
    if slo is not None:
        from repro.obs import HistogramSet

        hist = HistogramSet()

    def _finish() -> int:
        if hist is None:
            return 0
        from repro.obs import tier_attribution_table

        table = tier_attribution_table(
            hist, title="-- chat turn latency (wall seconds) --"
        )
        if table:
            print(table)
        if slo.armed:
            print(f"slo violations: {violations}")
        if args.metrics_out:
            import os

            from repro.obs import prometheus_snapshot

            os.makedirs(args.metrics_out, exist_ok=True)
            prom_path = os.path.join(args.metrics_out, "chat_metrics.prom")
            counters = {
                f"slo_violations.{kind}": float(count)
                for kind, count in violations.items()
                if count
            }
            with open(prom_path, "w", encoding="utf-8") as fh:
                fh.write(prometheus_snapshot(hists=hist, counters=counters))
            print(f"metrics [prom   ]: {prom_path}")
        return 0

    print(
        "Stateful chat demo (random-weight tiny model; replies are noise,\n"
        "the cache behaviour is real).  Commands: /stats, /quit.\n"
    )
    conv_id = 0
    while True:
        try:
            line = input("you> ").strip()
        except (EOFError, KeyboardInterrupt):
            print()
            return _finish()
        if not line:
            continue
        if line == "/quit":
            return _finish()
        if line == "/stats":
            print(f"  context: {server.context_length(conv_id)} tokens")
            print(f"  placement: {server.placement(conv_id)}")
            print(f"  cache stats: {server.manager.stats}")
            continue
        start = _time.perf_counter()
        reply = server.chat_text(conv_id, line, max_new_tokens=args.max_tokens)
        elapsed = _time.perf_counter() - start
        if hist is not None:
            hist.hist("chat_turn_seconds", clock="wall").record(elapsed)
            per_token = elapsed / max(1, args.max_tokens)
            hist.hist("chat_token_seconds", clock="wall").record(per_token)
            if slo.ttft is not None and elapsed > slo.ttft:
                violations["ttft"] += 1
            if slo.tbt is not None and per_token > slo.tbt:
                violations["tbt"] += 1
        print(f"bot> {reply}")


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.analysis.traces import cache_summary
    from repro.experiments.common import run_serving_once
    from repro.workload.dataset import SHAREGPT, ULTRACHAT, generate_workload

    config = _model(args.model)
    dataset = ULTRACHAT if args.dataset == "ultrachat" else SHAREGPT
    conversations = generate_workload(
        dataset,
        request_rate=args.rate,
        duration=args.duration,
        think_time_mean=args.think_time,
        seed=args.seed,
    )
    fault_plan = _fault_plan(args)
    tracer = _make_tracer(args)
    slo = _slo_config(args)
    sampler = _make_sampler(args)
    engine, stats = run_serving_once(
        _engine_factory(args.system, config, fault_plan,
                        disk_tokens=args.disk_tokens,
                        decode_sched=args.decode_sched),
        conversations,
        until=args.duration,
        warmup=args.duration * 0.3,
        tracer=tracer,
        slo=slo,
        sampler=sampler,
    )
    print(f"system        : {engine.name}")
    print(f"model         : {config.name} ({config.num_gpus} GPU(s))")
    print(f"workload      : {dataset.name} @ {args.rate} req/s, "
          f"{args.duration:.0f}s, think {args.think_time:.0f}s")
    for key, value in stats.as_dict().items():
        print(f"{key:22s}: {value}")
    if hasattr(engine, "manager"):
        print("cache         :", cache_summary(engine).as_dict())
    if fault_plan is not None:
        print("faults        :", engine.metrics.faults.as_dict())
        print(f"degraded      : {engine.num_failed}")
    if slo is not None:
        _print_slo_summary(engine.metrics)
    if args.metrics_out:
        _write_metrics(engine, args.metrics_out, sampler=sampler)
    if tracer is not None:
        _write_trace(tracer, args.trace_out, prefix="trace_simulate")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.common import format_curve_table, run_rate_sweep
    from repro.workload.dataset import SHAREGPT, ULTRACHAT

    config = _model(args.model)
    dataset = ULTRACHAT if args.dataset == "ultrachat" else SHAREGPT
    slo = _slo_config(args)
    hist = flight = None
    if slo is not None:
        # Shared sinks aggregate SLO metrics across every rate's engine.
        from repro.obs import FlightRecorder, HistogramSet

        hist, flight = HistogramSet(), FlightRecorder()
    points = run_rate_sweep(
        _engine_factory(args.system, config, disk_tokens=args.disk_tokens,
                        decode_sched=args.decode_sched),
        dataset,
        rates=args.rates,
        duration=args.duration,
        think_time_mean=args.think_time,
        seed=args.seed,
        slo=slo,
        hist=hist,
        flight=flight,
    )
    print(format_curve_table(f"{args.system} / {config.name}", points))
    if hist is not None:
        from repro.obs import tier_attribution_table

        table = tier_attribution_table(
            hist,
            title="-- latency attribution, all rates (sim seconds) --",
        )
        if table:
            print()
            print(table)
    if args.metrics_out:
        import os

        from repro.obs import prometheus_snapshot

        os.makedirs(args.metrics_out, exist_ok=True)
        prom_path = os.path.join(args.metrics_out, "sweep_metrics.prom")
        counters = {
            f"flight_events.{key}": float(value)
            for key, value in flight.event_counts.items()
        }
        with open(prom_path, "w", encoding="utf-8") as fh:
            fh.write(prometheus_snapshot(hists=hist, counters=counters))
        print(f"metrics [prom   ]: {prom_path}")
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    from repro.experiments.fig03 import format_fig03, run_fig03
    from repro.experiments.fig04 import format_fig04, run_fig04
    from repro.experiments.fig12 import format_fig12, run_fig12
    from repro.experiments.tab02 import format_tab02, run_tab02

    print(format_fig03(run_fig03()))
    print()
    print(format_fig04(run_fig04()))
    print()
    print(format_fig12(run_fig12()))
    print()
    print(format_tab02(run_tab02()))
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """One serving run with the SLO observability layer armed end to end."""
    from repro.experiments.common import run_serving_once
    from repro.obs import MetricsSampler, SloConfig, parse_prometheus
    from repro.workload.dataset import SHAREGPT, ULTRACHAT, generate_workload

    config = _model(args.model)
    dataset = ULTRACHAT if args.dataset == "ultrachat" else SHAREGPT
    conversations = generate_workload(
        dataset,
        request_rate=args.rate,
        duration=args.duration,
        think_time_mean=args.think_time,
        seed=args.seed,
    )
    slo = SloConfig(ttft=args.slo_ttft, tbt=args.slo_tbt)
    sampler = MetricsSampler(
        interval=max(args.duration / 100.0, 1e-3), horizon=args.duration
    )
    engine, stats = run_serving_once(
        _engine_factory(args.system, config, _fault_plan(args),
                        disk_tokens=args.disk_tokens),
        conversations,
        until=args.duration,
        warmup=args.duration * 0.3,
        slo=slo,
        sampler=sampler,
    )
    print(f"system        : {engine.name}")
    print(f"workload      : {dataset.name} @ {args.rate} req/s, "
          f"{args.duration:.0f}s")
    for key, value in stats.as_dict().items():
        print(f"{key:22s}: {value}")
    _print_slo_summary(engine.metrics)
    _write_metrics(engine, args.out, sampler=sampler)
    # Round-trip the snapshot as a validity check (CI metrics-smoke).
    import os

    prom_path = os.path.join(args.out, "metrics.prom")
    with open(prom_path, encoding="utf-8") as fh:
        families = parse_prometheus(fh.read())
    print(f"snapshot parses: {len(families)} metric families")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import check_thresholds, format_table, run_all, write_json

    tracer = _make_tracer(args)
    results = run_all(
        quick=args.quick, seed=args.seed, repeats=args.repeats, tracer=tracer,
    )
    print(format_table(results))
    if args.check_history:
        # Load the ledger BEFORE write_json appends the current run, so
        # a run is never compared against itself.
        from repro.bench import (
            check_history,
            format_report,
            load_history_ledger,
            summarize,
        )

        ledger = load_history_ledger(args.output) if args.output else []
        verdicts = check_history(summarize(results), ledger)
        print()
        print(format_report(verdicts, history_len=len(ledger)))
        print("(non-gating: the watchdog never fails the build)")
    if args.output:
        write_json(results, args.output, quick=args.quick, seed=args.seed)
        print(f"\nwrote {args.output}")
    if tracer is not None:
        _write_trace(tracer, args.trace_out, prefix="trace_bench")
    if not all(x.equivalent for x in results):
        print("ERROR: vectorized kernels diverged from the reference", flush=True)
        return 1
    if args.enforce_thresholds:
        failures = check_thresholds(results)
        if failures:
            for failure in failures:
                print(f"ERROR: {failure}", flush=True)
            return 1
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.experiments.common import run_serving_once
    from repro.obs import Tracer
    from repro.workload.dataset import SHAREGPT, ULTRACHAT, generate_workload

    tracer = Tracer()
    if args.experiment == "simulate":
        config = _model(args.model)
        dataset = ULTRACHAT if args.dataset == "ultrachat" else SHAREGPT
        conversations = generate_workload(
            dataset,
            request_rate=args.rate,
            duration=args.duration,
            think_time_mean=args.think_time,
            seed=args.seed,
        )
        engine, stats = run_serving_once(
            _engine_factory(args.system, config, None,
                            disk_tokens=args.disk_tokens),
            conversations,
            until=args.duration,
            warmup=args.duration * 0.3,
            tracer=tracer,
        )
        print(f"system        : {engine.name}")
        for key, value in stats.as_dict().items():
            print(f"{key:22s}: {value}")
    elif args.experiment == "fig13":
        from repro.experiments.fig13 import format_fig13, run_fig13

        curves = run_fig13(
            rates=tuple(args.rates), duration=args.duration,
            seed=args.seed, tracer=tracer,
        )
        print(format_fig13(curves))
    elif args.experiment == "fig15x":
        from repro.experiments.fig15x import format_fig15x, run_fig15x

        kwargs = {}
        if args.disk_tokens:
            kwargs["disk_cache_tokens"] = args.disk_tokens
        curves = run_fig15x(
            config=_model(args.model), rates=tuple(args.rates),
            duration=args.duration, seed=args.seed, tracer=tracer,
            **kwargs,
        )
        print(format_fig15x(curves))
    else:  # pragma: no cover - argparse choices prevent this
        raise SystemExit(f"unknown experiment {args.experiment!r}")
    if args.summary:
        from repro.obs import span_summary

        tracer.close_open(t=args.duration)
        print(span_summary(tracer, top=args.top))
    _write_trace(tracer, args.out, prefix=f"trace_{args.experiment}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import generate

    generate(args.output, duration=args.duration)
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import Baseline, format_json, format_text, run_lint

    baseline = Baseline.load(args.baseline)
    result = run_lint(args.root, baseline=baseline)

    if args.write_baseline:
        Baseline.from_findings(result.errors).write(args.baseline)
        print(
            f"wrote {len(result.errors)} baseline entr(y/ies) to "
            f"{args.baseline}"
        )
        return 0

    output = (
        format_json(result)
        if args.json
        else format_text(result, verbose=args.verbose)
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(output)
    print(output, end="")
    return result.exit_code(strict=args.strict)


def _add_sched_flags(parser: argparse.ArgumentParser) -> None:
    """The simulator's decode-scheduling policy.

    ``--decode-sched fifo`` (the default) is the paper-faithful
    arrival-order policy; ``page-aware`` picks the §4.3.5 suspension
    victim and orders the admission window by GPU page residency.
    """
    parser.add_argument("--decode-sched", choices=("fifo", "page-aware"),
                        default="fifo",
                        help="decode scheduling policy: arrival order (fifo) "
                             "or GPU-page-residency order (page-aware); "
                             "default fifo")


def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_slo_flags(parser: argparse.ArgumentParser) -> None:
    """The SLO-objective / metrics-artifact flag trio.

    Any one of them arms the SLO observability layer (streaming latency
    histograms + per-request flight recorder); the objectives addition-
    ally classify violations and capture slow-request timelines.
    """
    parser.add_argument("--slo-ttft", type=float, default=None,
                        metavar="SECONDS",
                        help="time-to-first-token objective; requests over "
                             "it count as violations and dump their flight "
                             "timeline")
    parser.add_argument("--slo-tbt", type=float, default=None,
                        metavar="SECONDS",
                        help="mean time-between-tokens objective (same "
                             "violation handling)")
    parser.add_argument("--metrics-out", default=None, metavar="DIR",
                        help="write the metrics artifacts (Prometheus text "
                             "snapshot, JSONL samples, flight captures) "
                             "here; also arms the SLO layer by itself")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Pensieve reproduction: stateful LLM serving.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    chat = sub.add_parser("chat", help="interactive functional chat demo")
    chat.add_argument("--arch", choices=("opt", "llama"), default="llama")
    chat.add_argument("--gpu-tokens", type=int, default=512)
    chat.add_argument("--cpu-tokens", type=int, default=2048)
    chat.add_argument("--disk-tokens", type=int, default=0,
                      help="capacity of the third (disk) tier in KV-tokens "
                           "(0 disables it)")
    chat.add_argument("--max-tokens", type=_positive_int, default=12)
    chat.add_argument("--system-prompt", default="")
    chat.add_argument("--seed", type=int, default=0)
    _add_slo_flags(chat)
    chat.set_defaults(func=cmd_chat)

    simulate = sub.add_parser("simulate", help="one serving-simulation run")
    simulate.add_argument("--system", default="pensieve")
    simulate.add_argument("--model", default="opt-13b")
    simulate.add_argument("--dataset", choices=("sharegpt", "ultrachat"),
                          default="sharegpt")
    simulate.add_argument("--rate", type=float, default=8.0)
    simulate.add_argument("--duration", type=float, default=300.0)
    simulate.add_argument("--think-time", type=float, default=60.0)
    simulate.add_argument("--seed", type=int, default=7)
    simulate.add_argument("--disk-tokens", type=int, default=0,
                          help="enable the NVMe-modeled disk tier with this "
                               "many KV-tokens of capacity (stateful systems)")
    simulate.add_argument("--fault-seed", type=int, default=None,
                          help="arm deterministic fault injection (stateful "
                               "systems only) seeded with this value")
    simulate.add_argument("--fault-rate", type=float, default=0.05,
                          help="per-occurrence failure probability used for "
                               "the injected fault sites")
    simulate.add_argument("--trace-out", default=None, metavar="DIR",
                          help="record full telemetry and write the trace "
                               "artifacts (Chrome JSON, JSONL, text) here")
    _add_sched_flags(simulate)
    _add_slo_flags(simulate)
    simulate.set_defaults(func=cmd_simulate)

    sweep = sub.add_parser("sweep", help="latency-throughput curve")
    sweep.add_argument("--system", default="pensieve")
    sweep.add_argument("--model", default="opt-13b")
    sweep.add_argument("--dataset", choices=("sharegpt", "ultrachat"),
                       default="sharegpt")
    sweep.add_argument("--rates", type=float, nargs="+",
                       default=[2.0, 5.0, 8.0, 11.0])
    sweep.add_argument("--duration", type=float, default=300.0)
    sweep.add_argument("--think-time", type=float, default=60.0)
    sweep.add_argument("--seed", type=int, default=7)
    sweep.add_argument("--disk-tokens", type=int, default=0,
                       help="enable the NVMe-modeled disk tier with this "
                            "many KV-tokens of capacity (stateful systems)")
    _add_sched_flags(sweep)
    _add_slo_flags(sweep)
    sweep.set_defaults(func=cmd_sweep)

    figures = sub.add_parser("figures", help="fast analytical figures")
    figures.set_defaults(func=cmd_figures)

    bench = sub.add_parser(
        "bench", help="kernel/forward-pass performance benchmark"
    )
    bench.add_argument("--quick", action="store_true",
                       help="small sizes / few repeats (CI smoke mode)")
    bench.add_argument("--output", default="BENCH_kernels.json",
                       help="JSON output path ('' to skip writing)")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--repeats", type=int, default=None,
                       help="override per-scenario repeat count")
    bench.add_argument("--enforce-thresholds", action="store_true",
                       help="exit non-zero if any gated scenario (ragged "
                            "kernels, coalesced swap, packing cache, "
                            "page-aware A/B; batch >= 8) falls below its "
                            "per-family speedup floor")
    bench.add_argument("--trace-out", default=None, metavar="DIR",
                       help="record per-scenario wall-clock spans and write "
                            "the trace artifacts here")
    bench.add_argument("--check-history", action="store_true",
                       help="compare the run's per-family speedups against "
                            "the trailing median of the BENCH_kernels.json "
                            "history ledger (pass/warn/fail report; "
                            "non-gating)")
    bench.set_defaults(func=cmd_bench)

    trace = sub.add_parser(
        "trace", help="run an experiment with full telemetry recording"
    )
    trace.add_argument("experiment", choices=("simulate", "fig13", "fig15x"),
                       help="what to run under the tracer")
    trace.add_argument("--out", default="traces", metavar="DIR",
                       help="output directory for the trace artifacts")
    trace.add_argument("--system", default="pensieve")
    trace.add_argument("--model", default="opt-13b")
    trace.add_argument("--dataset", choices=("sharegpt", "ultrachat"),
                       default="sharegpt")
    trace.add_argument("--rate", type=float, default=8.0)
    trace.add_argument("--rates", type=float, nargs="+", default=[2.0, 8.0],
                       help="request rates (fig13/fig15x)")
    trace.add_argument("--duration", type=float, default=120.0)
    trace.add_argument("--think-time", type=float, default=60.0)
    trace.add_argument("--seed", type=int, default=7)
    trace.add_argument("--disk-tokens", type=int, default=0,
                       help="enable the NVMe-modeled disk tier with this "
                            "many KV-tokens of capacity (simulate/fig15x)")
    trace.add_argument("--summary", action="store_true",
                       help="print per-span-name aggregates and the top-N "
                            "slowest spans before writing the artifacts")
    trace.add_argument("--top", type=int, default=10,
                       help="slowest-span count for --summary (default 10)")
    trace.set_defaults(func=cmd_trace)

    metrics = sub.add_parser(
        "metrics",
        help="one serving run with the SLO observability layer armed",
    )
    metrics.add_argument("--system", default="pensieve")
    metrics.add_argument("--model", default="opt-13b")
    metrics.add_argument("--dataset", choices=("sharegpt", "ultrachat"),
                         default="sharegpt")
    metrics.add_argument("--rate", type=float, default=8.0)
    metrics.add_argument("--duration", type=float, default=120.0)
    metrics.add_argument("--think-time", type=float, default=60.0)
    metrics.add_argument("--seed", type=int, default=7)
    metrics.add_argument("--disk-tokens", type=int, default=0,
                         help="enable the NVMe-modeled disk tier with this "
                              "many KV-tokens of capacity")
    metrics.add_argument("--fault-seed", type=int, default=None,
                         help="arm deterministic fault injection so failed "
                              "requests exercise the capture path")
    metrics.add_argument("--fault-rate", type=float, default=0.05)
    metrics.add_argument("--slo-ttft", type=float, default=None,
                         metavar="SECONDS",
                         help="time-to-first-token objective")
    metrics.add_argument("--slo-tbt", type=float, default=None,
                         metavar="SECONDS",
                         help="mean time-between-tokens objective")
    metrics.add_argument("--out", default="metrics", metavar="DIR",
                         help="output directory for the metrics artifacts "
                              "(default: metrics/)")
    metrics.set_defaults(func=cmd_metrics)

    report = sub.add_parser("report", help="regenerate EXPERIMENTS.md (slow)")
    report.add_argument("--output", default="EXPERIMENTS.md")
    report.add_argument("--duration", type=float, default=500.0)
    report.set_defaults(func=cmd_report)

    lint = sub.add_parser(
        "lint",
        help="repo-specific static analysis (sim-clock purity, fault-site "
             "coverage, hot-path allocation, ledger sync, kernel copies)",
    )
    lint.add_argument("--root", default=".",
                      help="repo root to lint (default: cwd); scans "
                           "<root>/src/repro")
    lint.add_argument("--strict", action="store_true",
                      help="also fail on stale baseline entries (CI mode)")
    lint.add_argument("--json", action="store_true",
                      help="emit the machine-readable JSON report")
    lint.add_argument("--baseline", default="lint_baseline.json",
                      metavar="PATH",
                      help="baseline file of grandfathered findings "
                           "(default: lint_baseline.json; missing = empty)")
    lint.add_argument("--write-baseline", action="store_true",
                      help="rewrite the baseline from the current unsup-"
                           "pressed findings instead of reporting them")
    lint.add_argument("--output", default=None, metavar="PATH",
                      help="also write the report to this file (CI artifact)")
    lint.add_argument("--verbose", action="store_true",
                      help="include suppressed and baselined findings in "
                           "the text report")
    lint.set_defaults(func=cmd_lint)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
