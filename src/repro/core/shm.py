"""Shared-memory plan publication and the process worker pool.

The thread-pool :class:`~repro.core.executor.ParallelExecutor` tops out well
below the roofline projection because the Python layer around the numpy
kernels serializes on the GIL (see ``benchmarks/results/thread_scaling.txt``).
This module provides the machinery that moves the sharded mpGEMM/mpGEMV
pipeline onto real cores:

* :class:`PlanSegmentRegistry` — publishes a :class:`~repro.core.plan.
  KernelPlan`'s offline artifacts (weight scales/zeros, per-bit folded
  indices, mirror signs, precomputed gather offsets) **once** into a
  ``multiprocessing.shared_memory`` segment keyed by the plan's content
  address.  Plans are frozen read-only after the offline build, which is
  exactly the shape shared memory needs: workers attach lazily and map the
  same physical pages, so no weight or index bytes are ever pickled.  The
  registry refcounts segments per live plan object (``weakref.finalize``),
  unlinks them when the last referencing plan is garbage-collected — e.g.
  after eviction from :class:`~repro.core.plan.PlanCache` — and sweeps
  every remaining segment at interpreter exit so crashes cannot orphan
  ``/dev/shm`` entries across runs.
* :class:`ProcessWorkerPool` — a persistent pool of worker *processes* (one
  pool per worker count, shared by every kernel in the process).  Per call,
  only the activation lookup table, the per-quantization-group activation
  sums and the output buffer cross the process boundary — all through a
  reusable scratch arena sized by the largest call seen, so steady-state
  decode performs no serialization beyond a tiny per-shard control tuple.
  Workers that die (OOM-killed, crashed, test-killed) are detected by the
  dispatch loop, respawned, and the lost shards are resubmitted; shard
  writes are idempotent (each worker owns a disjoint output span), so a
  retried call stays bit-identical.  A call that cannot complete raises
  :class:`ExecutorWorkerError` — it never hangs.

Workers execute the *same* :class:`~repro.core.executor.VectorizedExecutor`
span pipeline against views reconstructed over the shared segments, with the
same per-shard chunk budget the thread executor uses, so the per-element
float-op sequence is exactly the serial one and results are bit-identical
at any worker count.
"""

from __future__ import annotations

import atexit
import os
import queue as queue_module
import threading
import time
import traceback
import weakref
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

__all__ = [
    "ExecutorWorkerError",
    "shm_available",
    "PlanSegmentRegistry",
    "PLAN_SEGMENTS",
    "ProcessWorkerPool",
    "get_process_pool",
    "shutdown_process_pools",
    "shm_registry_stats",
]

try:  # pragma: no cover - import success is the normal case
    import multiprocessing
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - stripped-down interpreters
    multiprocessing = None
    _shared_memory = None

#: Alignment of every block inside a shared segment (cache-line friendly,
#: and satisfies any numpy dtype's alignment requirement).
_ALIGN = 64

#: Workers keep at most this many attached plan mappings before evicting
#: the least recently used one (bounds worker-side address-space growth in
#: long-running serving processes with many models).
_WORKER_PLAN_CACHE = 64


class ExecutorWorkerError(RuntimeError):
    """A process-pool mpGEMM call could not be completed.

    Raised when a worker shard fails with an exception, when workers keep
    dying faster than the pool can respawn them, or when a call exceeds the
    pool's timeout.  The dispatching call never hangs: it either returns a
    bit-identical result or raises this error (and the pool is reset so the
    next call starts from clean workers).
    """


def shm_available() -> bool:
    """Whether POSIX shared memory + multiprocessing are usable here.

    ``REPRO_DISABLE_SHM=1`` forces the negative — used by tests to cover the
    graceful serial fallback, and as an operator escape hatch on platforms
    with broken ``/dev/shm``.
    """
    if os.environ.get("REPRO_DISABLE_SHM"):
        return False
    return _shared_memory is not None


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


_NAME_LOCK = threading.Lock()
_NAME_COUNTER = [0]


def _segment_name(prefix: str) -> str:
    """Process-unique shared-memory name (pid + monotonic counter)."""
    with _NAME_LOCK:
        _NAME_COUNTER[0] += 1
        return f"{prefix}-{os.getpid()}-{_NAME_COUNTER[0]}"


def _attach_untracked(name: str):
    """Attach an existing segment without resource-tracker registration.

    Worker processes attaching a parent-owned segment must not register it
    with the (shared, forked) resource tracker: the parent owns the unlink,
    and concurrent register/unregister messages from several workers for
    one name race in the tracker's set and end in spurious KeyErrors and
    premature unlinks.  Python 3.13 grows ``track=False`` for exactly this;
    on 3.11 the registration hook is silenced around the attach (workers
    are single-threaded, so the swap cannot race locally).
    """
    try:  # pragma: no cover - depends on CPython internals staying put
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
    except Exception:
        return _shared_memory.SharedMemory(name=name)
    try:
        return _shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def _pack_arrays(arrays: "Dict[str, np.ndarray]") -> Tuple[int, Dict]:
    """Compute the packed layout ``name -> (offset, shape, dtype-str)``."""
    entries: Dict[str, Tuple[int, tuple, str]] = {}
    offset = 0
    for name, arr in arrays.items():
        offset = _align(offset)
        entries[name] = (offset, tuple(arr.shape), arr.dtype.str)
        offset += arr.nbytes
    return offset, entries


def _view(buf, entry, writeable: bool = False) -> np.ndarray:
    """A numpy view over one packed block of a shared segment."""
    off, shape, dtype = entry
    arr = np.ndarray(shape, dtype=np.dtype(dtype), buffer=buf, offset=off)
    if not writeable:
        arr.setflags(write=False)
    return arr


# --------------------------------------------------------------------- #
# Plan publication registry (parent side)
# --------------------------------------------------------------------- #


@dataclass
class _PlanSegment:
    """One published plan: the segment plus its refcounting state."""

    key: tuple
    shm: object
    manifest: dict
    nbytes: int
    #: ``id()`` of every live KernelPlan object retaining this segment.
    owners: Set[int] = field(default_factory=set)


class PlanSegmentRegistry:
    """Process-wide shared-memory publication of kernel plans.

    Segments are keyed by ``(weight fingerprint, layout key, mirrored)`` —
    the plan's content address plus the gather-metadata variant — so two
    plan objects for the same weights share one segment.  Each segment is
    retained by the set of live plan objects that published it; a
    ``weakref.finalize`` per plan decrements the count and the segment is
    unlinked when it reaches zero (plans dropped by ``PlanCache`` eviction
    release their segments as soon as the last kernel reference dies).
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._segments: Dict[tuple, _PlanSegment] = {}

    def publish(self, plan, mirrored: bool) -> dict:
        """Publish (or re-use) the segment for ``plan`` and return its
        manifest — everything a worker needs to rebuild read-only views."""
        from repro.core.plan import _layout_key

        key = (
            plan.fingerprint,
            _layout_key(plan.config, plan.weights.tile_config),
            bool(mirrored),
        )
        with self._lock:
            entry = self._segments.get(key)
            if entry is None:
                entry = self._build(key, plan, mirrored)
                self._segments[key] = entry
            if id(plan) not in entry.owners:
                entry.owners.add(id(plan))
                weakref.finalize(plan, self._release, key, id(plan))
            return entry.manifest

    def _build(self, key: tuple, plan, mirrored: bool) -> _PlanSegment:
        tables = plan.lookup_tables(mirrored)
        arrays: Dict[str, np.ndarray] = {
            "scales": plan.weights.scales,
            "zeros": plan.weights.zeros,
        }
        for bit, folded in enumerate(tables.folded):
            arrays[f"folded_{bit}"] = folded
        if tables.signs is not None:
            for bit, signs in enumerate(tables.signs):
                arrays[f"signs_{bit}"] = signs
        if tables.offsets is not None:
            for bit, offsets in enumerate(tables.offsets):
                arrays[f"offsets_{bit}"] = offsets

        total, entries = _pack_arrays(arrays)
        shm = _shared_memory.SharedMemory(
            create=True, size=max(1, total), name=_segment_name("repro-plan")
        )
        for name, arr in arrays.items():
            np.copyto(_view(shm.buf, entries[name], writeable=True),
                      np.ascontiguousarray(arr), casting="no")
        manifest = {
            "key": key,
            "segment": shm.name,
            "entries": entries,
            "bits": plan.bits,
            "alpha": plan.transform.alpha,
            "beta": plan.transform.beta,
            "out_features": plan.out_features,
            "in_features": plan.in_features,
            "num_qgroups": plan.num_qgroups,
            "groups_per_qgroup": plan.groups_per_qgroup,
            "num_groups": plan.num_groups,
            "stored": tables.stored,
            "mirrored": bool(mirrored),
            "has_signs": tables.signs is not None,
            "has_offsets": tables.offsets is not None,
        }
        return _PlanSegment(key=key, shm=shm, manifest=manifest,
                            nbytes=max(1, total))

    def _release(self, key: tuple, plan_id: int) -> None:
        """Finalizer: a retaining plan object died; unlink on last owner."""
        with self._lock:
            entry = self._segments.get(key)
            if entry is None:
                return
            entry.owners.discard(plan_id)
            if entry.owners:
                return
            del self._segments[key]
        _destroy_segment(entry.shm)

    def stats(self) -> Dict[str, int]:
        """Live segment count and total published bytes."""
        with self._lock:
            return {
                "segments": len(self._segments),
                "bytes": sum(e.nbytes for e in self._segments.values()),
            }

    def clear(self) -> None:
        """Unlink every published segment (tests / interpreter exit).

        Plans that are still alive simply re-publish on their next
        process-pool call; workers keep functioning because an unlinked
        POSIX segment stays mapped until the last attach closes.
        """
        with self._lock:
            entries = list(self._segments.values())
            self._segments.clear()
        for entry in entries:
            _destroy_segment(entry.shm)


def _destroy_segment(shm) -> None:
    try:
        shm.close()
    except BufferError:  # pragma: no cover - lingering views keep the map
        pass
    except OSError:  # pragma: no cover
        pass
    try:
        shm.unlink()
    except (FileNotFoundError, OSError):  # pragma: no cover
        pass


#: The process-wide plan-segment registry used by the process executor.
PLAN_SEGMENTS = PlanSegmentRegistry()


# --------------------------------------------------------------------- #
# Worker side
# --------------------------------------------------------------------- #


class _WorkerPlan:
    """Worker-side read-only reconstruction of a published plan.

    Duck-types the subset of :class:`~repro.core.plan.KernelPlan` the
    vectorized span pipeline touches (shape properties, ``weights.scales``
    / ``weights.zeros``, ``transform.alpha`` / ``beta``,
    ``lookup_tables``), backed by zero-copy views over the shared segment.
    """

    def __init__(self, manifest: dict, segment):
        from repro.core.plan import _LookupTables

        buf = segment.buf
        entries = manifest["entries"]
        self.segment_name = manifest["segment"]
        self.bits = manifest["bits"]
        self.out_features = manifest["out_features"]
        self.in_features = manifest["in_features"]
        self.num_qgroups = manifest["num_qgroups"]
        self.groups_per_qgroup = manifest["groups_per_qgroup"]
        self.num_groups = manifest["num_groups"]
        self.mirrored = manifest["mirrored"]
        self.weights = SimpleNamespace(
            scales=_view(buf, entries["scales"]),
            zeros=_view(buf, entries["zeros"]),
        )
        self.transform = SimpleNamespace(
            alpha=manifest["alpha"], beta=manifest["beta"]
        )
        folded = [_view(buf, entries[f"folded_{b}"])
                  for b in range(self.bits)]
        signs = None
        if manifest["has_signs"]:
            signs = [_view(buf, entries[f"signs_{b}"])
                     for b in range(self.bits)]
        offsets = None
        if manifest["has_offsets"]:
            offsets = [_view(buf, entries[f"offsets_{b}"])
                       for b in range(self.bits)]
        self._tables = _LookupTables(stored=manifest["stored"],
                                     folded=folded, signs=signs,
                                     offsets=offsets)
        #: Specialization key -> compiled kernel, mirroring
        #: :meth:`KernelPlan.specialized`.  The worker loop is
        #: single-threaded, so no lock is needed; the cache lives as long
        #: as this reconstruction does (evicted with the plan entry).
        self._spec_cache: dict = {}

    def lookup_tables(self, mirrored: bool):
        if bool(mirrored) != self.mirrored:
            raise RuntimeError(
                f"plan segment published for mirrored={self.mirrored}, "
                f"call requires mirrored={mirrored}"
            )
        return self._tables

    def specialized(self, key):
        """Worker-side specialization cache (single-threaded, lock-free)."""
        cached = self._spec_cache.get(key)
        if cached is None:
            from repro.core.specialize import compile_specialized

            cached = compile_specialized(self, key,
                                         self.lookup_tables(key.mirrored))
            self._spec_cache[key] = cached
        return cached


def _worker_attach(cache: dict, name: str):
    seg = cache.get(name)
    if seg is None:
        seg = _attach_untracked(name)
        cache[name] = seg
    return seg


def _worker_drop_segment(cache: dict, name: str) -> None:
    seg = cache.pop(name, None)
    if seg is None:
        return
    try:
        seg.close()
    except BufferError:  # views still alive somewhere; keep the map
        cache[name] = seg


def _execute_shard(plans: dict, seg_cache: dict, task: tuple) -> None:
    """Run one output-span shard inside a worker process."""
    from repro.core.executor import VectorizedExecutor
    from repro.core.lut import LookupTable

    (_, _call_id, _shard, plan_key, manifest, arena_name, layout,
     table_meta, m0, m1, span_budget, exec_opts) = task

    plan = plans.get(plan_key)
    if plan is None:
        if manifest is None:
            raise RuntimeError(
                f"plan {plan_key!r} not announced to this worker"
            )
        segment = _worker_attach(seg_cache, manifest["segment"])
        plan = _WorkerPlan(manifest, segment)
        plans[plan_key] = plan
        while len(plans) > _WORKER_PLAN_CACHE:
            old_key = next(iter(plans))
            old = plans.pop(old_key)
            _worker_drop_segment(seg_cache, old.segment_name)

    arena = _worker_attach(seg_cache, arena_name)
    # The arena is reused (and eventually replaced) across calls; drop any
    # previously attached arena generations so mappings do not accumulate.
    for name in [n for n in seg_cache
                 if n.startswith("repro-arena") and n != arena_name]:
        _worker_drop_segment(seg_cache, name)

    g, mirrored, quantized, scale_block, s0, s1, act_dtype = table_meta
    values = _view(arena.buf, layout["values"])
    scales = (_view(arena.buf, layout["scales"])
              if "scales" in layout else None)
    group_sums = _view(arena.buf, layout["group_sums"])
    out = _view(arena.buf, layout["out"], writeable=True)

    table = LookupTable(values=values, g=g, mirrored=mirrored,
                        quantized=quantized, scales=scales,
                        scale_block=scale_block, s0=s0, s1=s1,
                        act_dtype=act_dtype)
    fast_aggregation, specialize = exec_opts
    config = SimpleNamespace(fast_aggregation=fast_aggregation,
                             specialize=specialize)
    executor = VectorizedExecutor()
    # Assignment into the float32 slice rounds exactly like the serial
    # path's final astype(float32) — same property the thread pool uses.
    out[:, m0:m1] = executor._recombine_span(
        plan, table, config, group_sums, m0, m1, span_budget
    )
    del out, values, scales, group_sums


def _worker_main(worker_id: int, task_queue, result_queue) -> None:
    """Worker process loop: attach lazily, compute shards, report back."""
    plans: Dict[tuple, _WorkerPlan] = {}
    seg_cache: Dict[str, object] = {}
    while True:
        task = task_queue.get()
        if task is None:
            break
        kind = task[0]
        if kind == "crash":  # test hook: simulate a hard worker death
            os._exit(3)
        if kind != "call":
            continue
        call_id, shard = task[1], task[2]
        try:
            _execute_shard(plans, seg_cache, task)
            result_queue.put(("ok", call_id, shard, worker_id))
        except BaseException:
            result_queue.put(("err", call_id, shard, worker_id,
                              traceback.format_exc()))


# --------------------------------------------------------------------- #
# Parent-side worker pool
# --------------------------------------------------------------------- #


@dataclass
class _Worker:
    proc: object
    queue: object
    announced: Set[tuple] = field(default_factory=set)


class ProcessWorkerPool:
    """Persistent pool of mpGEMM worker processes for one worker count.

    One call runs at a time per pool (a dispatch lock serializes callers);
    shards of a call run concurrently across the workers.  The pool owns a
    single scratch arena segment, grown to the largest call seen, holding
    the per-call inputs (LUT values + scales + activation group sums) and
    the shared output buffer — the only bytes that move per call.
    """

    #: Result-poll interval while waiting on workers.
    _POLL_S = 0.05
    #: Consecutive respawn rounds tolerated within one call.
    max_retries = 3

    def __init__(self, num_workers: int):
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if not shm_available():
            raise RuntimeError("shared memory is not available on this host")
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        self.num_workers = num_workers
        self.call_timeout_s = float(
            os.environ.get("REPRO_PROCESS_CALL_TIMEOUT_S", "120")
        )
        self._lock = threading.Lock()
        self._results = self._ctx.Queue()
        self._workers: List[_Worker] = []
        self._arena = None
        self._arena_bytes = 0
        self._call_seq = 0
        self.restarts = 0

    # -- lifecycle ---------------------------------------------------- #

    def _spawn_locked(self, worker_id: int) -> _Worker:
        task_queue = self._ctx.Queue()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(worker_id, task_queue, self._results),
            daemon=True,
            name=f"repro-mpgemm-proc-{self.num_workers}-{worker_id}",
        )
        proc.start()
        return _Worker(proc=proc, queue=task_queue)

    def _ensure_workers_locked(self, count_restarts: bool) -> None:
        if self._workers:
            dead = [w for w in self._workers if not w.proc.is_alive()]
            if dead:
                if count_restarts:
                    self.restarts += len(dead)
                # Never respawn onto the surviving queues: a worker that
                # died between calls may have been killed after its result
                # was delivered but before its feeder thread released the
                # results queue's shared write semaphore — every process
                # that later writes to that queue would block forever.
                # Recycle the whole pool (fresh processes, fresh queues).
                self._reset_locked()
        if not self._workers:
            self._workers = [
                self._spawn_locked(i) for i in range(self.num_workers)
            ]

    def _ensure_arena_locked(self, nbytes: int) -> None:
        if self._arena is not None and self._arena_bytes >= nbytes:
            return
        if self._arena is not None:
            _destroy_segment(self._arena)
        size = 1 << max(12, (max(1, nbytes) - 1).bit_length())
        self._arena = _shared_memory.SharedMemory(
            create=True, size=size, name=_segment_name("repro-arena")
        )
        self._arena_bytes = size

    def _reset_locked(self) -> None:
        """Kill every worker and drop queued work (post-error hygiene).

        The shared results queue is recycled along with the workers: a
        worker terminated mid-``put`` dies holding the queue's write lock,
        which would deadlock every future worker that touches the old
        queue (the parent would then see alive-but-silent workers until
        the call deadline).  Task queues are per-worker and already
        replaced by ``_spawn_locked``.
        """
        for worker in self._workers:
            if worker.proc.is_alive():
                worker.proc.terminate()
        for worker in self._workers:
            worker.proc.join(timeout=2.0)
        self._workers = []
        self._recycle_results_queue_locked()

    def _recycle_results_queue_locked(self) -> None:
        old = self._results
        self._results = self._ctx.Queue()
        try:
            old.close()
        except (OSError, ValueError):  # pragma: no cover
            pass

    def shutdown(self) -> None:
        """Stop workers and unlink the arena (tests / interpreter exit)."""
        with self._lock:
            for worker in self._workers:
                try:
                    worker.queue.put(None)
                except (OSError, ValueError):  # pragma: no cover
                    pass
            deadline = time.monotonic() + 2.0
            for worker in self._workers:
                worker.proc.join(timeout=max(0.0,
                                             deadline - time.monotonic()))
                if worker.proc.is_alive():
                    worker.proc.terminate()
                    worker.proc.join(timeout=1.0)
            self._workers = []
            self._recycle_results_queue_locked()
            if self._arena is not None:
                _destroy_segment(self._arena)
                self._arena = None
                self._arena_bytes = 0

    def reset_stats(self) -> None:
        with self._lock:
            self.restarts = 0

    def arena_bytes(self) -> int:
        with self._lock:
            return self._arena_bytes if self._arena is not None else 0

    def restart_count(self) -> int:
        """Cumulative worker respawns, read under the dispatch lock."""
        with self._lock:
            return self.restarts

    # -- test hooks --------------------------------------------------- #

    def debug_kill_worker(self, index: int = 0, *,
                          mid_dispatch: bool = False) -> None:
        """Kill one worker (fault-path tests).

        ``mid_dispatch=True`` queues a crash marker instead of terminating
        immediately, so the worker dies while draining its task queue
        during the *next* call — exercising the lost-shard resubmission
        path rather than the between-calls respawn path.
        """
        with self._lock:
            if not self._workers:
                self._ensure_workers_locked(count_restarts=False)
            worker = self._workers[index % len(self._workers)]
            if mid_dispatch:
                worker.queue.put(("crash",))
            else:
                worker.proc.terminate()
                worker.proc.join(timeout=2.0)

    # -- dispatch ----------------------------------------------------- #

    def run_matmul(self, plan, table, config, group_sums: np.ndarray,
                   shards: List[Tuple[int, int]],
                   span_budget: int) -> np.ndarray:
        """Execute one sharded mpGEMM call; returns the ``[N, M]`` result.

        Bit-identical to the serial vectorized executor: workers run the
        identical span pipeline over identical input bytes with the same
        chunk budget, and every shard writes a disjoint output span.
        """
        n = int(table.num_rows)
        m = int(plan.out_features)
        with self._lock:
            self._drain_stale_results_locked()
            self._ensure_workers_locked(count_restarts=True)
            manifest = PLAN_SEGMENTS.publish(plan, table.mirrored)
            plan_key = manifest["key"]

            arrays = {
                "values": np.ascontiguousarray(table.values),
                "group_sums": np.ascontiguousarray(group_sums),
            }
            if table.scales is not None:
                arrays["scales"] = np.ascontiguousarray(table.scales)
            out_spec = np.empty((n, m), dtype=np.float32)
            arrays["out"] = out_spec
            total, layout = _pack_arrays(arrays)
            self._ensure_arena_locked(total)
            for name in ("values", "group_sums", "scales"):
                if name in arrays:
                    np.copyto(
                        _view(self._arena.buf, layout[name], writeable=True),
                        arrays[name], casting="no",
                    )

            self._call_seq += 1
            call_id = self._call_seq
            table_meta = (table.g, table.mirrored, table.quantized,
                          table.scale_block, table.s0, table.s1,
                          table.act_dtype)
            # The execution flags the span pipeline reads off the config.
            exec_opts = (bool(config.fast_aggregation),
                         bool(getattr(config, "specialize", False)))
            pending: Dict[int, Tuple[int, int]] = {
                i: span for i, span in enumerate(shards)
            }
            self._submit_locked(pending, call_id, plan_key, manifest,
                                layout, table_meta, span_budget,
                                exec_opts)
            retried = self._await_locked(pending, call_id, plan_key,
                                         manifest, layout, table_meta,
                                         span_budget, exec_opts)
            result = np.array(_view(self._arena.buf, layout["out"]))
            if retried:
                # Resubmission may have left duplicate shard tasks in
                # flight; within this call they are idempotent (same bytes
                # to the same span), but a straggler racing the *next*
                # call's arena reuse would not be.  Recycle the workers so
                # nothing outlives the call.
                self._reset_locked()
            return result

    def _submit_locked(self, pending, call_id, plan_key, manifest, layout,
                table_meta, span_budget, exec_opts) -> None:
        for i, (m0, m1) in sorted(pending.items()):
            worker = self._workers[i % len(self._workers)]
            announce = plan_key not in worker.announced
            worker.announced.add(plan_key)
            worker.queue.put((
                "call", call_id, i, plan_key,
                manifest if announce else None,
                self._arena.name, layout, table_meta, m0, m1,
                span_budget, exec_opts,
            ))

    def _await_locked(self, pending, call_id, plan_key, manifest, layout,
               table_meta, span_budget, exec_opts) -> int:
        """Wait for the call's shards; returns the respawn-round count."""
        deadline = time.monotonic() + self.call_timeout_s
        retries = 0
        while pending:
            try:
                msg = self._results.get(timeout=self._POLL_S)
            except queue_module.Empty:
                dead = [i for i, w in enumerate(self._workers)
                        if not w.proc.is_alive()]
                if dead:
                    retries += 1
                    self.restarts += len(dead)
                    if retries > self.max_retries:
                        self._reset_locked()
                        raise ExecutorWorkerError(
                            f"mpGEMM call lost workers {retries} times in a "
                            f"row; giving up with {len(pending)} shard(s) "
                            "outstanding"
                        )
                    # A worker that died mid-queue-operation may have
                    # taken a shared lock with it (its task queue's read
                    # lock, or the results queue's write lock) — any
                    # process still using those queues would deadlock.
                    # Recycle the whole pool: fresh processes, fresh
                    # queues, then resubmit every outstanding shard (we
                    # cannot know which ones the dead worker had consumed;
                    # shard writes are disjoint and idempotent).
                    self._reset_locked()
                    self._ensure_workers_locked(count_restarts=False)
                    self._submit_locked(pending, call_id, plan_key,
                                        manifest, layout, table_meta,
                                        span_budget, exec_opts)
                if time.monotonic() > deadline:
                    self._reset_locked()
                    raise ExecutorWorkerError(
                        f"mpGEMM call timed out after "
                        f"{self.call_timeout_s:.0f}s with {len(pending)} "
                        "shard(s) outstanding"
                    )
                continue
            if msg[1] != call_id:
                continue  # stale message from an abandoned call
            if msg[0] == "ok":
                pending.pop(msg[2], None)
            else:
                self._reset_locked()
                raise ExecutorWorkerError(
                    f"worker shard {msg[2]} failed:\n{msg[4]}"
                )
        return retries

    def _drain_stale_results_locked(self) -> None:
        while True:
            try:
                self._results.get_nowait()
            except queue_module.Empty:
                return


# --------------------------------------------------------------------- #
# Process-wide pool registry + exit cleanup
# --------------------------------------------------------------------- #

_POOLS_LOCK = threading.Lock()
_PROCESS_POOLS: Dict[int, ProcessWorkerPool] = {}


def get_process_pool(num_workers: int) -> ProcessWorkerPool:
    """The process-wide worker pool for ``num_workers`` worker processes.

    Pools are created lazily and persist for the life of the interpreter
    (worker start-up costs orders of magnitude more than an mpGEMM shard),
    so every kernel, layer and serving step sharing a worker count also
    shares one pool — and one scratch arena.
    """
    with _POOLS_LOCK:
        pool = _PROCESS_POOLS.get(num_workers)
        if pool is None:
            pool = ProcessWorkerPool(num_workers)
            _PROCESS_POOLS[num_workers] = pool
        return pool


def iter_process_pools() -> List[ProcessWorkerPool]:
    """Snapshot of the live pools (stats aggregation)."""
    with _POOLS_LOCK:
        return list(_PROCESS_POOLS.values())


def shutdown_process_pools() -> None:
    """Tear down every worker pool and its arena (tests / embedders)."""
    with _POOLS_LOCK:
        pools = list(_PROCESS_POOLS.values())
        _PROCESS_POOLS.clear()
    for pool in pools:
        pool.shutdown()


def shm_registry_stats() -> Dict[str, int]:
    """Live shared-memory footprint: published plans + scratch arenas."""
    stats = PLAN_SEGMENTS.stats()
    arenas = iter_process_pools()
    arena_bytes = sum(pool.arena_bytes() for pool in arenas)
    arena_count = sum(1 for pool in arenas if pool.arena_bytes())
    return {
        "segments": stats["segments"] + arena_count,
        "bytes": stats["bytes"] + arena_bytes,
        "plan_segments": stats["segments"],
        "plan_bytes": stats["bytes"],
        "arena_segments": arena_count,
        "arena_bytes": arena_bytes,
    }


@atexit.register
def _cleanup_at_exit() -> None:  # pragma: no cover - interpreter teardown
    """Orphan-segment sweep: nothing may outlive the interpreter."""
    try:
        shutdown_process_pools()
    except Exception:
        pass
    try:
        PLAN_SEGMENTS.clear()
    except Exception:
        pass
