"""Tiered (GPU/CPU/disk) KV-cache manager.

The manager owns all token-level accounting for every tier and implements
the mechanics of Pensieve's cache design:

- **token-chunk eviction** in ascending score order under a pluggable
  eviction policy (§4.3.1; policies live in :mod:`repro.core.eviction`);
- **ahead-of-time swap-out** with lazy reclamation (§4.3.2): chunks are
  *copied* to the CPU tier (state ``GPU_CPU``) when free GPU space falls
  below a threshold, and their GPU slots are only truly handed over when an
  allocation needs them;
- **CPU-tier demotion/dropping** under CPU memory pressure: with the
  optional disk tier enabled, the paper's retention value V = Cost(s,l)/T
  is extended *cross-tier* — a chunk leaving the CPU lands on disk when
  its score justifies NVMe traffic (and may displace strictly
  lower-scored disk chunks), and is dropped for §4.3.4 recomputation
  otherwise;
- **restore planning** (:class:`CachePlan`): given a returning
  conversation, compute exactly which tokens are GPU hits, which must be
  swapped in from the CPU, which must be read back from disk, and which
  must be recomputed — the Figure 5 decomposition, disk-extended.

The manager is deliberately time-free: it never talks to the PCIe or NVMe
engines or the clock.  Engines ask it *what* to move and separately model
*how long* the movement takes, which lets the identical bookkeeping drive
both the functional layer (real numpy tensors) and the performance
simulation.

Implementation note: the serving simulation calls the accounting
properties on every scheduling round, so all tier totals are maintained
incrementally (O(1) reads) and every location change funnels through
:meth:`TieredCacheManager._move`; :meth:`_audit` re-derives the counters
from scratch and is exercised by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.faults.plan import FaultCounters, FaultPlan, FaultSite
from repro.kvcache.chunks import Chunk, ChunkLocation, ConversationCache
from repro.obs.tracer import NULL_TRACER

#: Eviction scorer: ``(chunk, last_active, now) -> score``.  Chunks are
#: evicted in ascending score order (low retention value goes first).
EvictionScorer = Callable[[Chunk, float, float], float]

#: Cross-tier placement policy: ``(chunk, last_active, now) -> location``,
#: deciding where a chunk leaving the CPU tier lands (``DISK`` or
#: ``DROPPED``).  ``None`` means "always try disk" when the tier exists.
TierPlacement = Callable[[Chunk, float, float], ChunkLocation]


class CacheCapacityError(RuntimeError):
    """Raised when an operation cannot fit in the configured tiers."""


@dataclass
class CachePlan:
    """Placement plan for a returning (or new) request's context.

    Token counts follow the Figure 5 decomposition of the request context:

    - ``gpu_hit_tokens``: already resident (``GPU`` or ``GPU_CPU``), free;
    - ``swap_in_chunks`` / ``swap_in_tokens``: CPU-resident, must cross the
      PCIe link before the corresponding layers' attention;
    - ``disk_read_chunks`` / ``disk_read_tokens``: disk-resident, must be
      read back over NVMe into the host and then cross the PCIe link;
    - ``recompute_tokens``: dropped, their raw tokens must be prepended to
      the prompt and re-prefix-filled;
    - ``new_tokens``: the request's genuinely new prompt tokens.

    ``alloc_tokens`` is the number of fresh GPU slots the plan needs
    (swap-in + disk-read + recompute + new); ``total_context`` is the
    context length after the plan commits.
    """

    conv_id: int
    gpu_hit_tokens: int = 0
    swap_in_chunks: List[Chunk] = field(default_factory=list)
    swap_in_tokens: int = 0
    disk_read_chunks: List[Chunk] = field(default_factory=list)
    disk_read_tokens: int = 0
    recompute_tokens: int = 0
    new_tokens: int = 0

    @property
    def alloc_tokens(self) -> int:
        return (
            self.swap_in_tokens
            + self.disk_read_tokens
            + self.recompute_tokens
            + self.new_tokens
        )

    @property
    def cached_tokens(self) -> int:
        """Tokens reused without recomputation (hits + swap-ins + disk reads)."""
        return self.gpu_hit_tokens + self.swap_in_tokens + self.disk_read_tokens

    @property
    def prefill_tokens(self) -> int:
        """Tokens that must actually run through the model."""
        return self.recompute_tokens + self.new_tokens

    @property
    def total_context(self) -> int:
        return (
            self.gpu_hit_tokens
            + self.swap_in_tokens
            + self.disk_read_tokens
            + self.recompute_tokens
            + self.new_tokens
        )


#: Locations that occupy GPU slots.
_GPU_STATES = (ChunkLocation.GPU, ChunkLocation.GPU_CPU)
#: Locations that occupy CPU slots.
_CPU_STATES = (ChunkLocation.CPU, ChunkLocation.GPU_CPU)


class TieredCacheManager:
    """Token-accounting core of Pensieve's cache hierarchy.

    Args:
        gpu_capacity_tokens: KV-token slots available on the GPU tier.
        cpu_capacity_tokens: KV-token slots available on the CPU tier
            (0 disables the CPU tier, producing the paper's
            "Pensieve (GPU cache)" variant).
        disk_capacity_tokens: KV-token slots available on the disk (NVMe)
            tier behind the CPU; 0 (the default) disables the tier,
            reproducing the paper's two-tier behaviour exactly.
        chunk_size: eviction granularity in tokens (32 in the paper).
        scorer: eviction policy; defaults (when ``None``) must be supplied
            before any eviction happens.
        placement: cross-tier placement policy deciding whether a chunk
            leaving the CPU tier is demoted to disk or dropped (see
            :class:`repro.core.eviction.TieredPlacementPolicy`); ``None``
            demotes whenever the disk tier has (or can make) room.
        fault_plan: optional seeded failure schedule; when set, D2H copies
            may fail and the affected chunks degrade to ``DROPPED`` (their
            tokens recompute later) instead of crashing the manager.
        fault_counters: recovery accounting shared with the owning engine.
    """

    def __init__(
        self,
        gpu_capacity_tokens: int,
        cpu_capacity_tokens: int,
        chunk_size: int = 32,
        scorer: Optional[EvictionScorer] = None,
        whole_conversation_eviction: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        fault_counters: Optional[FaultCounters] = None,
        disk_capacity_tokens: int = 0,
        placement: Optional[TierPlacement] = None,
    ) -> None:
        if gpu_capacity_tokens <= 0:
            raise ValueError("gpu_capacity_tokens must be positive")
        if cpu_capacity_tokens < 0:
            raise ValueError("cpu_capacity_tokens must be non-negative")
        if disk_capacity_tokens < 0:
            raise ValueError("disk_capacity_tokens must be non-negative")
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        self.gpu_capacity_tokens = gpu_capacity_tokens
        self.cpu_capacity_tokens = cpu_capacity_tokens
        self.disk_capacity_tokens = disk_capacity_tokens
        self.chunk_size = chunk_size
        self.scorer = scorer
        self.placement = placement
        self.fault_plan = fault_plan
        self.fault_counters = fault_counters or FaultCounters()
        #: CachedAttention-style eviction granularity (paper Table 3):
        #: evict a conversation's entire GPU-resident context at once
        #: instead of chunk by chunk.  Kept for the granularity ablation.
        self.whole_conversation_eviction = whole_conversation_eviction
        #: Optional callback ``(cache, chunk, old_location, new_location)``
        #: fired on every tier transition.  The functional serving layer
        #: uses it to mirror the manager's decisions onto real tensors
        #: (copying chunk data to the CPU store, vacating GPU pages, ...).
        self.observer: Optional[
            Callable[[ConversationCache, Chunk, ChunkLocation, ChunkLocation], None]
        ] = None
        self._conversations: Dict[int, ConversationCache] = {}
        # Incremental tier totals (see module docstring).
        self._gpu_resident = 0    # tokens in GPU or GPU_CPU
        self._cpu_used = 0        # tokens in CPU or GPU_CPU
        self._disk_used = 0       # tokens in DISK
        self._reclaimable = 0     # GPU_CPU tokens of unpinned conversations
        self._evictable = 0       # GPU tokens of unpinned conversations
        # Which conversations have at least one chunk in a location.
        self._index: Dict[ChunkLocation, Set[int]] = {
            loc: set() for loc in ChunkLocation
        }
        # Statistics for Figure 14 style analyses.
        self.stats = {
            "lookup_tokens": 0,
            "gpu_hit_tokens": 0,
            "cpu_hit_tokens": 0,
            "disk_hit_tokens": 0,
            "recomputed_tokens": 0,
            "swapped_out_tokens": 0,
            "dropped_tokens": 0,
            # Disk-tier traffic: tokens demoted CPU -> DISK under host
            # memory pressure, and tokens evicted from the disk tier
            # (each disk eviction also counts into ``dropped_tokens`` —
            # the tokens become recompute-needing at that moment).
            "demoted_tokens": 0,
            "disk_dropped_tokens": 0,
            # Tokens that left the GPU_CPU state (reclaimed to CPU, or
            # promoted back to GPU on reuse) — each such exit consumes one
            # completed ahead-of-time copy; engines use this to track how
            # many settled copies remain reclaimable.
            "gpu_cpu_exit_tokens": 0,
        }
        #: Observability sink; :meth:`_bump` mirrors every ``stats``
        #: increment into a ``cache.*`` counter so a trace's totals
        #: reconcile exactly with :attr:`stats`.
        self.tracer = NULL_TRACER

    def _bump(self, key: str, tokens: int) -> None:
        """Increment one ``stats`` counter, mirrored into the tracer."""
        self.stats[key] += tokens
        if self.tracer.enabled:
            self.tracer.count(f"cache.{key}", tokens)

    def fragmentation_tokens(self) -> int:
        """Internal fragmentation of the GPU tier at chunk granularity:
        slots inside partially-filled tail chunks.  O(conversations) —
        intended for per-iteration gauge sampling in traced runs only.
        """
        wasted = 0
        for cache in self._conversations.values():
            # GPU-resident chunks occupy the rear of the Figure 5 layout,
            # so only the final chunk can be a partially-filled GPU tail.
            if not cache.chunks:
                continue
            tail = cache.chunks[-1]
            if tail.location in _GPU_STATES and tail.num_tokens < self.chunk_size:
                wasted += self.chunk_size - tail.num_tokens
        return wasted

    # ------------------------------------------------------------------
    # Accounting (O(1))
    # ------------------------------------------------------------------

    @property
    def gpu_resident_tokens(self) -> int:
        """Tokens occupying GPU slots (including lazily-reclaimable copies)."""
        return self._gpu_resident

    @property
    def gpu_free_tokens(self) -> int:
        """GPU slots not occupied by anyone."""
        return self.gpu_capacity_tokens - self._gpu_resident

    @property
    def reclaimable_tokens(self) -> int:
        """GPU slots occupied by already-copied (``GPU_CPU``) unpinned chunks."""
        return self._reclaimable

    @property
    def gpu_available_tokens(self) -> int:
        """Slots obtainable without any PCIe traffic (free + reclaimable)."""
        return self.gpu_free_tokens + self._reclaimable

    @property
    def cpu_used_tokens(self) -> int:
        return self._cpu_used

    @property
    def cpu_free_tokens(self) -> int:
        return self.cpu_capacity_tokens - self._cpu_used

    @property
    def disk_used_tokens(self) -> int:
        return self._disk_used

    @property
    def disk_free_tokens(self) -> int:
        return self.disk_capacity_tokens - self._disk_used

    @property
    def evictable_gpu_tokens(self) -> int:
        """GPU-only tokens of unpinned conversations (swap-out candidates)."""
        return self._evictable

    def conversation(self, conv_id: int) -> Optional[ConversationCache]:
        return self._conversations.get(conv_id)

    def conversations(self) -> List[ConversationCache]:
        return list(self._conversations.values())

    def gpu_resident_fraction(self, conv_id: int) -> float:
        """Fraction of a conversation's cached tokens still holding GPU
        pages (``GPU`` + ``GPU_CPU`` in the Figure 5 layout); 0 for an
        unknown or empty conversation."""
        cache = self._conversations.get(conv_id)
        if cache is None or cache.total_tokens == 0:
            return 0.0
        seg = cache.segments()
        resident = seg.get(ChunkLocation.GPU, 0) + seg.get(
            ChunkLocation.GPU_CPU, 0
        )
        return resident / cache.total_tokens

    # ------------------------------------------------------------------
    # Counter maintenance
    # ------------------------------------------------------------------

    def _move(self, cache: ConversationCache, chunk: Chunk, new: ChunkLocation) -> None:
        """Move a chunk between tiers, keeping every counter consistent."""
        old = chunk.location
        if old is new:
            return
        n = chunk.num_tokens
        if old in _GPU_STATES and new not in _GPU_STATES:
            self._gpu_resident -= n
        elif old not in _GPU_STATES and new in _GPU_STATES:
            self._gpu_resident += n
        if old in _CPU_STATES and new not in _CPU_STATES:
            self._cpu_used -= n
        elif old not in _CPU_STATES and new in _CPU_STATES:
            self._cpu_used += n
        if old is ChunkLocation.DISK:
            self._disk_used -= n
        elif new is ChunkLocation.DISK:
            self._disk_used += n
        if not cache.pinned:
            if old is ChunkLocation.GPU_CPU:
                self._reclaimable -= n
            if new is ChunkLocation.GPU_CPU:
                self._reclaimable += n
            if old is ChunkLocation.GPU:
                self._evictable -= n
            if new is ChunkLocation.GPU:
                self._evictable += n
        if old is ChunkLocation.GPU_CPU:
            self._bump("gpu_cpu_exit_tokens", n)
        chunk.location = new
        self._reindex(cache)
        if self.observer is not None:
            self.observer(cache, chunk, old, new)

    def _reindex(self, cache: ConversationCache) -> None:
        """Refresh the location index entries of one conversation."""
        present = {c.location for c in cache.chunks}
        for loc in ChunkLocation:
            if loc in present:
                self._index[loc].add(cache.conv_id)
            else:
                self._index[loc].discard(cache.conv_id)

    def _on_extend(self, cache: ConversationCache, tokens: int) -> None:
        """Account fresh GPU tokens appended to a conversation."""
        self._gpu_resident += tokens
        if not cache.pinned:
            self._evictable += tokens
        if tokens:
            self._index[ChunkLocation.GPU].add(cache.conv_id)

    def _set_pinned(self, cache: ConversationCache, pinned: bool) -> None:
        if cache.pinned == pinned:
            return
        gpu_cpu = cache.tokens_in(ChunkLocation.GPU_CPU)
        gpu = cache.tokens_in(ChunkLocation.GPU)
        if pinned:
            self._reclaimable -= gpu_cpu
            self._evictable -= gpu
        else:
            self._reclaimable += gpu_cpu
            self._evictable += gpu
        cache.pinned = pinned

    def _audit(self) -> None:
        """Re-derive every counter from scratch and assert consistency.

        Used by the test suite (including property-based tests) to prove
        the incremental accounting can never drift.
        """
        gpu = cpu = disk = reclaimable = evictable = 0
        for cache in self._conversations.values():
            gpu += cache.tokens_in(*_GPU_STATES)
            cpu += cache.tokens_in(*_CPU_STATES)
            disk += cache.tokens_in(ChunkLocation.DISK)
            if not cache.pinned:
                reclaimable += cache.tokens_in(ChunkLocation.GPU_CPU)
                evictable += cache.tokens_in(ChunkLocation.GPU)
        assert gpu == self._gpu_resident, (gpu, self._gpu_resident)
        assert cpu == self._cpu_used, (cpu, self._cpu_used)
        assert disk == self._disk_used, (disk, self._disk_used)
        assert reclaimable == self._reclaimable, (reclaimable, self._reclaimable)
        assert evictable == self._evictable, (evictable, self._evictable)
        for loc in ChunkLocation:
            expect = {
                c.conv_id
                for c in self._conversations.values()
                if any(ch.location is loc for ch in c.chunks)
            }
            assert expect == self._index[loc], (loc, expect, self._index[loc])

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def open(self, conv_id: int, now: float) -> ConversationCache:
        """Get or create the cache record for a conversation and pin it."""
        cache = self._conversations.get(conv_id)
        if cache is None:
            cache = ConversationCache(conv_id, self.chunk_size, now=now)
            self._conversations[conv_id] = cache
        self._set_pinned(cache, True)
        cache.last_active = now
        return cache

    def close(self, conv_id: int, now: float) -> None:
        """Unpin a conversation after its request finishes.

        Its KV-tokens stay resident (this is the stateful-serving point of
        the whole system); ``last_active`` becomes ``now``.
        """
        cache = self._conversations[conv_id]
        self._set_pinned(cache, False)
        cache.last_active = now

    def forget(self, conv_id: int) -> int:
        """Drop every trace of a conversation; returns freed GPU tokens."""
        cache = self._conversations.pop(conv_id, None)
        if cache is None:
            return 0
        gpu = cache.tokens_in(*_GPU_STATES)
        self._gpu_resident -= gpu
        self._cpu_used -= cache.tokens_in(*_CPU_STATES)
        self._disk_used -= cache.tokens_in(ChunkLocation.DISK)
        if not cache.pinned:
            self._reclaimable -= cache.tokens_in(ChunkLocation.GPU_CPU)
            self._evictable -= cache.tokens_in(ChunkLocation.GPU)
        for loc in ChunkLocation:
            self._index[loc].discard(conv_id)
        return gpu

    # ------------------------------------------------------------------
    # Restore planning (Figure 5 decomposition)
    # ------------------------------------------------------------------

    def plan_restore(self, conv_id: int, new_tokens: int) -> CachePlan:
        """Plan context placement for a request with ``new_tokens`` of prompt.

        Does not mutate any state (it may be called speculatively every
        scheduling round); :meth:`commit_restore` applies the plan — and
        records the hit/recompute statistics — once the engine has
        modelled (or performed) the data movement.
        """
        if new_tokens < 0:
            raise ValueError("new_tokens must be non-negative")
        plan = CachePlan(conv_id=conv_id, new_tokens=new_tokens)
        cache = self._conversations.get(conv_id)
        if cache is not None:
            plan.gpu_hit_tokens = cache.tokens_in(*_GPU_STATES)
            plan.swap_in_chunks = cache.chunks_in(ChunkLocation.CPU)
            plan.swap_in_tokens = sum(c.num_tokens for c in plan.swap_in_chunks)
            plan.disk_read_chunks = cache.chunks_in(ChunkLocation.DISK)
            plan.disk_read_tokens = sum(
                c.num_tokens for c in plan.disk_read_chunks
            )
            plan.recompute_tokens = cache.tokens_in(ChunkLocation.DROPPED)
        return plan

    def commit_restore(self, plan: CachePlan, now: float) -> ConversationCache:
        """Apply a restore plan: all chunks become GPU-resident and the
        context is extended by the plan's new tokens.

        The caller must have ensured capacity (see :meth:`ensure_capacity`).

        Raises:
            CacheCapacityError: if the GPU tier cannot hold the result.
        """
        needed = plan.alloc_tokens
        self._bump("lookup_tokens", plan.total_context - plan.new_tokens)
        self._bump("gpu_hit_tokens", plan.gpu_hit_tokens)
        self._bump("cpu_hit_tokens", plan.swap_in_tokens)
        self._bump("disk_hit_tokens", plan.disk_read_tokens)
        self._bump("recomputed_tokens", plan.recompute_tokens)
        cache = self.open(plan.conv_id, now)
        if needed > self.gpu_free_tokens + self._reclaimable:
            raise CacheCapacityError(
                f"restore needs {needed} tokens; free={self.gpu_free_tokens}, "
                f"reclaimable={self._reclaimable}"
            )
        if needed > self.gpu_free_tokens:
            self.reclaim(needed - self.gpu_free_tokens, now, exclude=plan.conv_id)
        for chunk in cache.chunks:
            # Everything the request touches becomes GPU-resident: CPU
            # chunks are swapped in, disk chunks read back and promoted,
            # dropped chunks recomputed, and lazily-reclaimable copies are
            # promoted back to GPU-only (their CPU copy is invalidated on
            # reuse for simplicity).
            self._move(cache, chunk, ChunkLocation.GPU)
        before = cache.total_tokens
        cache.extend_to(before + plan.new_tokens)
        self._on_extend(cache, plan.new_tokens)
        cache.check_layout()
        return cache

    def append_tokens(self, conv_id: int, count: int) -> None:
        """Extend a pinned conversation's context (decode-step growth).

        Raises:
            CacheCapacityError: if the GPU tier is full even after
                reclaiming copies.
        """
        if count <= 0:
            return
        cache = self._conversations[conv_id]
        if count > self.gpu_free_tokens:
            deficit = count - self.gpu_free_tokens
            # Check before reclaiming anything: a partial reclaim mutates
            # tier state, so refusing *after* it would leave chunks evicted
            # by an operation that reports failure (non-atomic).
            available = self._reclaimable
            if not cache.pinned:
                available -= cache.tokens_in(ChunkLocation.GPU_CPU)
            if deficit > available:
                raise CacheCapacityError(
                    f"decode growth of {count} tokens does not fit "
                    f"(free={self.gpu_free_tokens}, reclaimable={available})"
                )
            reclaimed = self.reclaim(deficit, now=cache.last_active, exclude=conv_id)
            assert reclaimed >= deficit, (reclaimed, deficit)
        cache.extend_to(cache.total_tokens + count)
        self._on_extend(cache, count)

    def invalidate_cpu_prefix(
        self, conv_id: int, upto: Optional[Chunk] = None
    ) -> int:
        """Recovery path for a failed or corrupt swap-in: drop the
        conversation's stored (disk + CPU) chunks from the front through
        ``upto`` (all of them when ``None``) so the next restore plan
        recomputes those tokens from the raw-token store (§4.3.4 fallback).

        Only the leading prefix may be invalidated — stored chunks sit
        right after the ``DROPPED`` prefix (disk first, then CPU), so
        growing that prefix keeps the Figure 5 layout legal by
        construction.  When ``upto`` is a CPU chunk, every disk chunk
        necessarily precedes it and is invalidated too: a surviving
        ``DISK`` chunk after a new ``DROPPED`` one would break
        monotonicity.  Returns tokens invalidated (0 for an unknown
        conversation — recovery must not raise anew).
        """
        cache = self._conversations.get(conv_id)
        if cache is None:
            return 0
        invalidated = 0
        for chunk in cache.chunks_in(ChunkLocation.DISK, ChunkLocation.CPU):
            if upto is not None and chunk.index > upto.index:
                break
            self._move(cache, chunk, ChunkLocation.DROPPED)
            self._bump("dropped_tokens", chunk.num_tokens)
            invalidated += chunk.num_tokens
        cache.check_layout()
        return invalidated

    def invalidate_disk_prefix(
        self, conv_id: int, upto: Optional[Chunk] = None
    ) -> int:
        """Recovery path for a failed or corrupt *disk* read: drop the
        conversation's ``DISK`` chunks from the front through ``upto``
        (all of them when ``None``).

        Disk chunks sit immediately after the ``DROPPED`` prefix, so this
        never touches CPU chunks and always leaves a legal layout — the
        narrower sibling of :meth:`invalidate_cpu_prefix` used when the
        CPU-resident portion of the context is still healthy.  Returns
        tokens invalidated.
        """
        cache = self._conversations.get(conv_id)
        if cache is None:
            return 0
        invalidated = 0
        for chunk in cache.chunks_in(ChunkLocation.DISK):
            if upto is not None and chunk.index > upto.index:
                break
            self._move(cache, chunk, ChunkLocation.DROPPED)
            self._bump("dropped_tokens", chunk.num_tokens)
            invalidated += chunk.num_tokens
        cache.check_layout()
        return invalidated

    # ------------------------------------------------------------------
    # Eviction machinery
    # ------------------------------------------------------------------

    def _require_scorer(self) -> EvictionScorer:
        if self.scorer is None:
            raise RuntimeError("no eviction scorer configured")
        return self.scorer

    def _candidates(
        self, location: ChunkLocation, now: float, exclude: Optional[int] = None
    ) -> List[Tuple[float, Chunk, ConversationCache]]:
        """Frontier chunks in ``location``, scored, ascending.

        Only the *earliest* chunk of each conversation in the given
        location is a candidate, which preserves the Figure 5 layout
        invariant during front-to-back eviction.
        """
        scorer = self._require_scorer()
        out = []
        for conv_id in self._index[location]:
            cache = self._conversations[conv_id]
            if cache.pinned or conv_id == exclude:
                continue
            chunk = cache.frontier(location)
            if chunk is not None:
                out.append((scorer(chunk, cache.last_active, now), chunk, cache))
        out.sort(key=lambda item: (item[0], item[1].conv_id, item[1].index))
        return out

    def swap_out(self, tokens_needed: int, now: float) -> List[Chunk]:
        """Make ``tokens_needed`` GPU tokens obtainable by copying GPU-only
        chunks to the CPU tier (ahead-of-time swap-out, §4.3.2) — and, when
        the CPU tier is saturated, by dropping the cheapest chunks outright.

        Copied chunks move ``GPU -> GPU_CPU``; their GPU slots stay
        occupied until :meth:`reclaim`.  Progress is counted as
        reclaimable tokens plus tokens freed by drops.  Returns the chunks
        copied, in order, so the engine can model the PCIe traffic.
        """
        copied: List[Chunk] = []
        free_start = self.gpu_free_tokens

        def progress() -> int:
            return self._reclaimable + (self.gpu_free_tokens - free_start)

        while progress() < tokens_needed:
            candidates = self._candidates(ChunkLocation.GPU, now)
            if not candidates:
                break
            score, chunk, cache = candidates[0]
            if self.whole_conversation_eviction:
                # Granularity ablation: take the whole conversation, even
                # past the target (the overshoot is the cost of coarse
                # eviction the paper's design avoids).
                for victim in list(cache.chunks_in(ChunkLocation.GPU)):
                    self._swap_out_chunk(cache, victim, now, copied, score=score)
            else:
                self._swap_out_chunk(cache, chunk, now, copied, score=score)
        return copied

    def _swap_out_chunk(
        self,
        cache: ConversationCache,
        chunk: Chunk,
        now: float,
        copied: List[Chunk],
        score: Optional[float] = None,
    ) -> str:
        """Move one GPU chunk toward the CPU tier.

        Returns ``"copied"`` or ``"dropped"``; either way the chunk's GPU
        slots have been made reclaimable or free (guaranteed progress).
        ``score`` is the victim's retention score, recorded on the
        eviction trace event so traces carry the score distribution the
        policy acted on.
        """
        outcome = self._swap_out_chunk_inner(cache, chunk, now, copied)
        if self.tracer.enabled:
            self.tracer.instant(
                "evict",
                t=now,
                track="cache",
                conv_id=cache.conv_id,
                chunk=chunk.index,
                tokens=chunk.num_tokens,
                outcome=outcome,
                score=score,
            )
        return outcome

    def _swap_out_chunk_inner(
        self,
        cache: ConversationCache,
        chunk: Chunk,
        now: float,
        copied: List[Chunk],
    ) -> str:
        if self.cpu_capacity_tokens == 0:
            # GPU-cache-only variant: dropping instead of copying.
            self._move(cache, chunk, ChunkLocation.DROPPED)
            self._bump("dropped_tokens", chunk.num_tokens)
            cache.check_layout()
            return "dropped"
        if self.fault_plan is not None and self.fault_plan.fires(FaultSite.SWAP_OUT):
            # The D2H copy failed: degrade by discarding the candidate's
            # leading prefix outright — the tokens recompute on return
            # (§4.3.4), so no served output is ever lost, and the chunk's
            # GPU slots still free up (guaranteed progress).
            self.fault_counters.swap_out_failures += 1
            self._drop_leading_prefix(cache, chunk)
            return "dropped"
        if self.cpu_free_tokens < chunk.num_tokens:
            self.drop_from_cpu(
                chunk.num_tokens - self.cpu_free_tokens, now, allow_revert=False
            )
            if self.cpu_free_tokens < chunk.num_tokens:
                # CPU tier saturated with data that may not be dropped
                # (pinned conversations' chunks, or copies backing
                # reclaimable GPU slots).  Fall back to discarding the
                # candidate conversation's leading chunks outright —
                # Figure 5 keeps the layout legal because the dropped
                # prefix only ever grows from the front.
                self._drop_leading_prefix(cache, chunk)
                return "dropped"
        self._move(cache, chunk, ChunkLocation.GPU_CPU)
        self._bump("swapped_out_tokens", chunk.num_tokens)
        copied.append(chunk)
        cache.check_layout()
        return "copied"

    def _drop_leading_prefix(self, cache: ConversationCache, upto: Chunk) -> None:
        """Drop a conversation's chunks from the front through ``upto``.

        Any ``GPU_CPU`` chunk in the prefix loses both its GPU slots and
        its CPU copy; ``CPU`` chunks free CPU space; the target ``GPU``
        chunk frees GPU slots.
        """
        for chunk in cache.chunks:
            if chunk.location is not ChunkLocation.DROPPED:
                if chunk.location is ChunkLocation.DISK:
                    self._bump("disk_dropped_tokens", chunk.num_tokens)
                self._bump("dropped_tokens", chunk.num_tokens)
                self._move(cache, chunk, ChunkLocation.DROPPED)
            if chunk is upto:
                break
        cache.check_layout()

    def reclaim(
        self, tokens_needed: int, now: float, exclude: Optional[int] = None
    ) -> int:
        """Actually free GPU slots of already-copied chunks
        (``GPU_CPU -> CPU``).  Returns tokens freed (may fall short)."""
        freed = 0
        while freed < tokens_needed:
            candidates = self._candidates(ChunkLocation.GPU_CPU, now, exclude=exclude)
            if not candidates:
                break
            score, chunk, cache = candidates[0]
            self._move(cache, chunk, ChunkLocation.CPU)
            freed += chunk.num_tokens
            cache.check_layout()
            if self.tracer.enabled:
                self.tracer.count("cache.reclaimed_tokens", chunk.num_tokens)
                self.tracer.instant(
                    "reclaim",
                    t=now,
                    track="cache",
                    conv_id=cache.conv_id,
                    chunk=chunk.index,
                    tokens=chunk.num_tokens,
                    score=score,
                )
        return freed

    def drop_from_cpu(
        self, tokens_needed: int, now: float, allow_revert: bool = True
    ) -> int:
        """Free CPU-tier space under memory pressure.

        Each victim (ascending retention score) is *demoted* to the disk
        tier when one is configured and the cross-tier placement policy
        approves (``CPU -> DISK``), and dropped outright otherwise
        (``CPU -> DROPPED``).  Either way its CPU tokens free up, so
        progress accounting is identical to the two-tier behaviour.

        Returns tokens freed.  With ``allow_revert``, chunks still lazily
        resident on the GPU (``GPU_CPU``) may lose their CPU copy as a last
        resort — reverting them to plain ``GPU`` frees CPU space without
        losing data.  :meth:`swap_out` disables this to guarantee forward
        progress (a revert would un-do the reclaimability it is building).
        """
        freed = 0
        while freed < tokens_needed:
            candidates = self._candidates(ChunkLocation.CPU, now)
            if candidates:
                score, chunk, cache = candidates[0]
                outcome = self._demote_or_drop(cache, chunk, score, now)
                freed += chunk.num_tokens
                cache.check_layout()
                if self.tracer.enabled:
                    self.tracer.instant(
                        "cpu_drop",
                        t=now,
                        track="cache",
                        conv_id=cache.conv_id,
                        chunk=chunk.index,
                        tokens=chunk.num_tokens,
                        outcome=outcome,
                        score=score,
                    )
                continue
            if not allow_revert:
                break
            # Fall back to invalidating the CPU copies of lazily-reclaimable
            # chunks (cheap: the data is still on the GPU).  Pick the
            # highest-score conversation (whose copies would be reclaimed
            # last anyway) and revert its *trailing* GPU_CPU chunk — the
            # reverted chunk then extends the GPU suffix, keeping the
            # Figure 5 layout legal.
            candidates = self._candidates(ChunkLocation.GPU_CPU, now)
            if not candidates:
                break
            _, _, cache = candidates[-1]
            chunk = cache.rear(ChunkLocation.GPU_CPU)
            assert chunk is not None
            self._move(cache, chunk, ChunkLocation.GPU)
            freed += chunk.num_tokens
            cache.check_layout()
        return freed

    def _demote_or_drop(
        self, cache: ConversationCache, chunk: Chunk, score: float, now: float
    ) -> str:
        """Send one CPU frontier chunk down the hierarchy.

        The cross-tier extension of the paper's retention value: the chunk
        lands on disk iff (a) the tier exists, (b) the placement policy
        says its score justifies NVMe traffic, and (c) room exists or can
        be made by evicting *strictly lower-scored* disk chunks — a chunk
        never displaces disk residents worth more than itself.  Otherwise
        it is dropped for §4.3.4 recomputation.

        Returns ``"demoted"`` or ``"dropped"``.
        """
        if self.disk_capacity_tokens > 0 and chunk.num_tokens <= self.disk_capacity_tokens:
            target = (
                self.placement(chunk, cache.last_active, now)
                if self.placement is not None
                else ChunkLocation.DISK
            )
            if target is ChunkLocation.DISK:
                if self.disk_free_tokens < chunk.num_tokens:
                    self.drop_from_disk(
                        chunk.num_tokens - self.disk_free_tokens,
                        now,
                        max_score=score,
                    )
                if self.disk_free_tokens >= chunk.num_tokens:
                    self._move(cache, chunk, ChunkLocation.DISK)
                    self._bump("demoted_tokens", chunk.num_tokens)
                    return "demoted"
        # Figure 5: the dropped prefix only grows from the front, so any of
        # the conversation's chunks still on disk *ahead* of this one must
        # be discarded with it.
        for victim in cache.chunks:
            if victim.location is not ChunkLocation.DROPPED:
                if victim.location is ChunkLocation.DISK:
                    self._bump("disk_dropped_tokens", victim.num_tokens)
                self._move(cache, victim, ChunkLocation.DROPPED)
                self._bump("dropped_tokens", victim.num_tokens)
            if victim is chunk:
                break
        return "dropped"

    def drop_from_disk(
        self, tokens_needed: int, now: float, max_score: Optional[float] = None
    ) -> int:
        """Evict disk-tier chunks (``DISK -> DROPPED``), cheapest first.

        With ``max_score`` set (the displacement path of
        :meth:`_demote_or_drop`), only chunks scoring *strictly below* it
        are evicted — the incoming chunk may not displace disk residents
        the policy values at least as much.  Returns tokens freed.
        """
        freed = 0
        while freed < tokens_needed:
            candidates = self._candidates(ChunkLocation.DISK, now)
            if not candidates:
                break
            score, chunk, cache = candidates[0]
            if max_score is not None and score >= max_score:
                break
            self._move(cache, chunk, ChunkLocation.DROPPED)
            self._bump("disk_dropped_tokens", chunk.num_tokens)
            self._bump("dropped_tokens", chunk.num_tokens)
            freed += chunk.num_tokens
            cache.check_layout()
            if self.tracer.enabled:
                self.tracer.instant(
                    "disk_drop",
                    t=now,
                    track="cache",
                    conv_id=cache.conv_id,
                    chunk=chunk.index,
                    tokens=chunk.num_tokens,
                    score=score,
                )
        return freed

    # ------------------------------------------------------------------
    # Capacity orchestration for the scheduler
    # ------------------------------------------------------------------

    def ensure_capacity(self, tokens_needed: int, now: float) -> List[Chunk]:
        """Make ``tokens_needed`` GPU tokens obtainable, swapping out (and,
        if necessary, dropping) as required.

        Returns chunks newly copied to the CPU so the caller can model the
        transfer.  After this call ``gpu_available_tokens >=
        tokens_needed`` unless even total capacity is insufficient, in
        which case :class:`CacheCapacityError` is raised.
        """
        if tokens_needed > self.gpu_capacity_tokens:
            raise CacheCapacityError(
                f"request needs {tokens_needed} tokens; GPU capacity is "
                f"{self.gpu_capacity_tokens}"
            )
        if self.gpu_available_tokens >= tokens_needed:
            return []
        copied = self.swap_out(tokens_needed - self.gpu_free_tokens, now)
        if self.gpu_available_tokens < tokens_needed:
            raise CacheCapacityError(
                f"cannot obtain {tokens_needed} GPU tokens "
                f"(available={self.gpu_available_tokens})"
            )
        return copied

    def release_conversation_gpu(self, conv_id: int, now: float) -> Tuple[int, int]:
        """Force a conversation's GPU chunks out (suspension, §4.3.5).

        GPU-only chunks are copied to the CPU tier when it has room and
        dropped otherwise; already-copied (``GPU_CPU``) chunks are simply
        reclaimed.  Returns ``(copied_tokens, dropped_tokens)`` — the first
        is the PCIe traffic the caller must model.
        """
        cache = self._conversations[conv_id]
        self._set_pinned(cache, False)
        # Already-copied chunks (possible only if the conversation was
        # never promoted after an ahead-of-time copy) reclaim for free.
        # They precede all GPU chunks, so this keeps the layout legal.
        for chunk in cache.chunks_in(ChunkLocation.GPU_CPU):
            self._move(cache, chunk, ChunkLocation.CPU)
        gpu_chunks = cache.chunks_in(ChunkLocation.GPU)
        # When the CPU tier cannot hold everything, drop *leading* chunks
        # (cheapest to recompute, §4.3.1) and keep the trailing ones —
        # which also preserves the Figure 5 layout by construction.
        gpu_tokens = sum(c.num_tokens for c in gpu_chunks)
        room = 0 if self.cpu_capacity_tokens == 0 else self.cpu_free_tokens
        if (
            gpu_tokens > 0
            and room > 0
            and self.fault_plan is not None
            and self.fault_plan.fires(FaultSite.SWAP_OUT)
        ):
            # The suspension's batched D2H copy failed: degrade every chunk
            # to a drop; the suspended request recomputes them on resume.
            self.fault_counters.swap_out_failures += 1
            room = 0
        copied = 0
        dropped = 0
        for chunk in gpu_chunks:
            if gpu_tokens - dropped > room:
                self._move(cache, chunk, ChunkLocation.DROPPED)
                self._bump("dropped_tokens", chunk.num_tokens)
                dropped += chunk.num_tokens
            else:
                self._move(cache, chunk, ChunkLocation.CPU)
                self._bump("swapped_out_tokens", chunk.num_tokens)
                copied += chunk.num_tokens
        cache.check_layout()
        return copied, dropped


#: Backward-compatible name from before the disk tier existed; with
#: ``disk_capacity_tokens=0`` (the default) the manager behaves exactly
#: as the two-tier original.
TwoTierCacheManager = TieredCacheManager
