"""Self-tests of the serving benchmark.

Run from the repository root::

    python3 -m pytest servebench/selftest.py -q
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import CHAT_SPECS, SIM_SHAREGPT, plan_chat, sim_seeds  # noqa: E402

VOCAB = 4096


def _declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(CHAT_SPECS))
def test_plan_is_deterministic_per_seed(name):
    spec = CHAT_SPECS[name]
    first = plan_chat(spec, 7, 30, VOCAB)
    again = plan_chat(spec, 7, 30, VOCAB)
    other = plan_chat(spec, 8, 30, VOCAB)
    assert first.digest() == again.digest()
    assert first.summary() == again.summary()
    assert first.digest() != other.digest()


def test_sim_seeds_are_deterministic_per_seed():
    assert sim_seeds(SIM_SHAREGPT, 7, 3) == sim_seeds(SIM_SHAREGPT, 7, 3)
    assert sim_seeds(SIM_SHAREGPT, 7, 3) != sim_seeds(SIM_SHAREGPT, 8, 3)


@pytest.mark.parametrize("name", sorted(CHAT_SPECS))
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_admission_never_exceeds_budget(name, seed):
    spec = CHAT_SPECS[name]
    plan = plan_chat(spec, seed, 120, VOCAB)
    context = {}
    for r, batch in enumerate(plan.rounds):
        assert len(batch) <= spec.max_batch
        assert len({t.conv for t in batch}) == len(batch)
        total = 0
        for turn in batch:
            assert turn.served == r >= turn.due
            assert turn.context == context.get(turn.conv, 0)
            total += turn.tokens(spec.reply)
        assert total <= plan.budget
        for turn in batch:
            context[turn.conv] = turn.tokens(spec.reply)
    if spec.gpu_tokens is None:
        assert plan.deferrals == 0
        assert plan.total_tokens <= plan.budget


def test_tiered_plan_defers_turns():
    plan = plan_chat(CHAT_SPECS["chat-tiered"], 1, 60, VOCAB)
    assert plan.deferrals > 0


def test_benchmark_json_declares_every_metric():
    doc = _declared()
    assert {w["name"] for w in doc["workloads"]} == set(workloads.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in doc["per_layer"]}
    assert e2e == run.END_TO_END
    assert layers == {name: unit for name, (unit, _) in run.PER_LAYER.items()}
    for _, applies in run.PER_LAYER.values():
        assert set(applies) <= set(workloads.WORKLOADS)


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(argv) == 0
    return out.getvalue().splitlines()


@pytest.fixture
def short_sim(monkeypatch):
    spec = dataclasses.replace(SIM_SHAREGPT, duration=60.0, warmup=20.0)
    monkeypatch.setattr(workloads, "SIM_SHAREGPT", spec)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_declaration(workload, trace, short_sim, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    lines = _run(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)])
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    doc = _declared()
    section = doc["per_layer"] if trace else doc["end_to_end"]
    declared = {m["name"]: m["unit"] for m in section}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    for name, m in result["metrics"].items():
        applies = run.PER_LAYER[name][1] if trace else workloads.WORKLOADS
        assert isinstance(m["value"], float)
        if workload not in applies:
            assert m["value"] == 0.0
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert (tmp_path / run.OUT_DIR).is_dir()
    assert any(line.startswith("fingerprint ") for line in lines)
    assert any(line.startswith("traffic ") for line in lines)


def test_wrappers_restore_originals_and_keep_outputs():
    from repro.core.server import StatefulChatServer
    from repro.model.config import tiny_llama_config

    def serve(server):
        # Six conversations in rotating pairs: every batch fits the GPU
        # tier, the working set does not.
        return [
            server.chat_batch([(c, [c + 1, 2, 3, 4, 5]) for c in pair], max_new_tokens=4)
            for _ in range(2)
            for pair in ((0, 1), (2, 3), (4, 5))
        ]

    def build():
        return StatefulChatServer(
            tiny_llama_config(), gpu_capacity_tokens=64, cpu_capacity_tokens=64,
            chunk_size=16, page_size=8, backend="paged",
        )

    plain = serve(build())
    server = build()
    observer = server.manager.observer
    rec = spans.SpanRecorder()
    spans.watch_server(rec, server)
    assert "forward" in vars(server.model)
    traced = serve(server)
    assert rec.restore()
    assert traced == plain
    assert "forward" not in vars(server.model)
    assert "chat_batch" not in vars(server)
    assert "decode_attention" not in vars(server.model.backend)
    assert server.manager.observer == observer
    names = set(rec.names)
    assert {"server.chat_batch", "model.forward.decode", "model.forward.prefill",
            "kernels.decode_attn", "kernels.prefill_attn"} <= names
    assert rec.counts["aot_copied_tokens"] > 0


def test_self_time_subtracts_children():
    rec = spans.SpanRecorder()
    outer = rec.open("a.outer")
    inner = rec.open("b.inner")
    rec.close(inner)
    rec.close(outer)
    own = rec.self_times()
    total = rec.total("a.outer")
    assert own["a.outer"] + own["b.inner"] == pytest.approx(total)
    assert rec.parent[inner] == outer


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "chat-tiered",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
