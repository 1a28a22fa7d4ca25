"""Seeded traffic for the serving benchmark.

Everything here is computed before timing starts and depends only on the
workload spec, the seed and the run length, so two runs with the same
arguments serve identical traffic.

The ``chat-*`` workloads are closed loops counted in logical rounds (§6.1:
a user sends the next turn only after the reply arrives).  A conversation's
next turn falls due ``1 + think`` rounds after the round that served its
previous turn; a finished conversation is replaced by a fresh one, so the
number of live conversations stays constant.  Each round hands the due
turns, oldest first, to one ``chat_batch`` call.  ``chat_batch`` has no
admission control of its own, so the planner admits a turn only while the
round's total of context + prompt + reply tokens fits the GPU tier and the
batch has room; the rest wait for a later round.  Reply lengths are fixed
per workload (``chat_batch`` takes one ``max_new_tokens`` per call), which
makes every context length, and therefore the whole round plan, known in
advance.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class ChatSpec:
    """One functional-server workload.

    Attributes:
        name: workload name (also salts the seed).
        why: the reason the workload exists (``BENCHMARK.json``).
        live: conversations in flight at any time.
        turns: inclusive range of turns per conversation.
        prompt: inclusive range of prompt tokens per turn.
        reply: reply tokens per turn (``max_new_tokens``).
        think: idle rounds between a reply and the round the next turn
            falls due (0 = due the very next round).  Constant: random
            think rounds made the share of turns that wait swing across
            seeds, and with it the latency percentiles.
        max_batch: most turns one ``chat_batch`` call may carry.
        gpu_tokens: GPU tier; ``None`` sizes it to hold every token the
            plan ever produces, so nothing is evicted.
        cpu_tokens: CPU tier.
        disk_tokens: disk tier.
        rounds_per_s: rounds this workload serves per wall-second on the
            reference machine (2 CPUs, numpy over OpenBLAS 0.3.31) in a
            30-second run; sets how many rounds ``--seconds`` buys.  Rounds
            get dearer as histories outgrow the tiers, so a longer run of
            ``chat-tiered`` serves fewer rounds per second.
    """

    name: str
    why: str
    live: int
    turns: Tuple[int, int]
    prompt: Tuple[int, int]
    reply: int
    think: int
    max_batch: int
    gpu_tokens: Optional[int]
    cpu_tokens: int
    disk_tokens: int
    rounds_per_s: float


@dataclass(frozen=True)
class SimSpec:
    """The simulator workload (OPT-13B on the A100 cost model)."""

    name: str
    why: str
    request_rate: float
    duration: float
    think_time: float
    warmup: float
    #: Simulated passes per wall-second on the reference machine, taken
    #: from its slower stretches so that a run stays near ``--seconds``;
    #: each pass serves independent sub-seeded traffic.
    passes_per_s: float


#: The model page and chunk sizes the functional workloads run with.
PAGE_SIZE = 16
CHUNK_SIZE = 32

CHAT_RESIDENT = ChatSpec(
    name="chat-resident",
    why="model and decode kernels with the cache tiers idle: every context stays GPU-resident",
    live=16,
    turns=(5, 7),
    prompt=(28, 36),
    reply=32,
    think=0,
    max_batch=16,
    gpu_tokens=None,
    cpu_tokens=3072,
    disk_tokens=3072,
    rounds_per_s=0.55,
)

CHAT_TIERED = ChatSpec(
    name="chat-tiered",
    why="cache hierarchy: swap-out beside swap-in, disk demotion, dropped-prefix recompute, prefill over restored histories",
    live=64,
    turns=(10, 14),
    prompt=(20, 28),
    reply=8,
    think=8,
    max_batch=8,
    gpu_tokens=2048,
    cpu_tokens=3072,
    disk_tokens=3072,
    rounds_per_s=1.6,
)

SIM_SHAREGPT = SimSpec(
    name="sim-sharegpt",
    why="simulator: PensieveEngine on the event loop with ShareGPT traffic at the Figure 10 knee, no tensors; gates the simulated results, traces the simulator's speed",
    request_rate=10.0,
    duration=300.0,
    think_time=60.0,
    warmup=90.0,
    passes_per_s=0.13,
)

CHAT_SPECS: Dict[str, ChatSpec] = {
    spec.name: spec for spec in (CHAT_RESIDENT, CHAT_TIERED)
}
WORKLOADS = (CHAT_RESIDENT.name, CHAT_TIERED.name, SIM_SHAREGPT.name)


def workload_rng(name: str, seed: int, stream: int = 0) -> np.random.Generator:
    """Independent generator per (workload, seed, stream)."""
    salt = int.from_bytes(hashlib.sha256(name.encode()).digest()[:4], "little")
    return np.random.default_rng([seed, salt, stream])


# ----------------------------------------------------------------------
# Chat round plan
# ----------------------------------------------------------------------


@dataclass
class Turn:
    """One scheduled turn: the prompt, when it fell due, when it is served."""

    conv: int
    index: int
    prompt: List[int]
    due: int
    context: int = 0
    served: int = -1

    def tokens(self, reply: int) -> int:
        """GPU tokens the turn holds at its end (context + prompt + reply)."""
        return self.context + len(self.prompt) + reply


@dataclass
class _Conversation:
    conv: int
    prompts: List[List[int]]
    context: int = 0
    next_index: int = 0


@dataclass
class ChatPlan:
    """The full schedule of one chat run."""

    spec: ChatSpec
    rounds: List[List[Turn]]
    #: Every scheduled turn, in serving order.
    turns: List[Turn]
    budget: int
    conversations: int
    deferrals: int
    total_tokens: int

    def digest(self) -> str:
        """Fingerprint of the served traffic (prompts, batching, order)."""
        h = hashlib.sha256()
        for r, batch in enumerate(self.rounds):
            for turn in batch:
                h.update(json.dumps([r, turn.conv, turn.index, turn.due, turn.prompt]).encode())
        return h.hexdigest()[:16]

    def summary(self) -> Dict[str, object]:
        return {
            "rounds": len(self.rounds),
            "turns": len(self.turns),
            "conversations": self.conversations,
            "live_conversations": self.spec.live,
            "prompt_tokens": sum(len(t.prompt) for t in self.turns),
            "reply_tokens": len(self.turns) * self.spec.reply,
            "admission_budget_tokens": self.budget,
            "max_batch": self.spec.max_batch,
            "deferred_turns": self.deferrals,
            "digest": self.digest(),
        }


def chat_rounds(spec: ChatSpec, seconds: float) -> int:
    """Rounds one run serves: ``--seconds`` worth on the reference machine."""
    return max(2, math.ceil(seconds * spec.rounds_per_s))


def plan_chat(spec: ChatSpec, seed: int, rounds: int, vocab: int) -> ChatPlan:
    """Generate the seeded round plan, admission included.

    Turns queue in the order they fell due (conversation id breaks ties);
    each round admits from the head while the batch has room and its
    token total fits the budget, and stops at the first turn that does not
    fit, so no turn is overtaken.
    """
    rng = workload_rng(spec.name, seed)
    next_id = 0
    pending: Dict[int, List[Turn]] = {}
    conversations: Dict[int, _Conversation] = {}

    def start(due: int) -> None:
        nonlocal next_id
        n = int(rng.integers(spec.turns[0], spec.turns[1] + 1))
        prompts = [
            rng.integers(0, vocab, int(rng.integers(spec.prompt[0], spec.prompt[1] + 1))).tolist()
            for _ in range(n)
        ]
        conv = _Conversation(next_id, prompts)
        conversations[next_id] = conv
        next_id += 1
        pending.setdefault(due, []).append(Turn(conv.conv, 0, prompts[0], due))

    for _ in range(spec.live):
        start(int(rng.integers(0, spec.think + 1)))

    budget = spec.gpu_tokens
    queue: deque = deque()
    plan_rounds: List[List[Turn]] = []
    deferrals = 0
    all_turns: List[Turn] = []
    for r in range(rounds):
        queue.extend(sorted(pending.pop(r, []), key=lambda t: t.conv))
        batch: List[Turn] = []
        used = 0
        while queue and len(batch) < spec.max_batch:
            turn = queue[0]
            turn.context = conversations[turn.conv].context
            need = turn.tokens(spec.reply)
            if budget is not None and used + need > budget:
                if not batch:
                    raise ValueError(
                        f"{spec.name}: one turn needs {need} tokens, more "
                        f"than the {budget}-token GPU tier"
                    )
                break
            queue.popleft()
            used += need
            turn.served = r
            batch.append(turn)
        deferrals += len(queue)
        plan_rounds.append(batch)
        for turn in batch:
            conv = conversations[turn.conv]
            conv.context += len(turn.prompt) + spec.reply
            conv.next_index += 1
            due = r + 1 + spec.think
            if conv.next_index < len(conv.prompts):
                nxt = Turn(conv.conv, conv.next_index, conv.prompts[conv.next_index], due)
                pending.setdefault(due, []).append(nxt)
            else:
                start(due)
            all_turns.append(turn)
    total = sum(c.context for c in conversations.values())
    if budget is None:
        # Ample: room for every token the plan produces, page-aligned.
        budget = -(-max(total, 1) // PAGE_SIZE) * PAGE_SIZE
    return ChatPlan(
        spec=spec,
        rounds=plan_rounds,
        turns=all_turns,
        budget=budget,
        conversations=next_id,
        deferrals=deferrals,
        total_tokens=total,
    )


def replay_sample(plan: ChatPlan, seed: int, size: int) -> List[int]:
    """Seeded sample of served conversations for the reference replay."""
    served = sorted({t.conv for t in plan.turns})
    rng = workload_rng(plan.spec.name, seed, stream=1)
    picked = rng.choice(len(served), size=min(size, len(served)), replace=False)
    return sorted(served[int(i)] for i in picked)


# ----------------------------------------------------------------------
# Simulator traffic
# ----------------------------------------------------------------------


def sim_passes(spec: SimSpec, seconds: float) -> int:
    """Simulated passes one run serves: ``--seconds`` worth on the
    reference machine."""
    return max(1, math.ceil(seconds * spec.passes_per_s))


def sim_seeds(spec: SimSpec, seed: int, passes: int) -> List[int]:
    """Workload seed of each pass (independent ShareGPT traffic each)."""
    rng = workload_rng(spec.name, seed)
    return [int(s) for s in rng.integers(0, 2**31 - 1, passes)]
