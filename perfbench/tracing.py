"""Span tracing of the library's layers, installed from outside the library.

:class:`Tracer` replaces public functions and methods of each layer with
wrappers that record a :class:`Span` (name, layer, start, end, parent span,
thread) and restores the originals on :meth:`Tracer.uninstall`.  Nothing
under ``src/`` is edited; spans stay in memory until the run is summarised.

Spans of the model forward pass in ``serving/batch.py`` count towards the
``llm`` layer: that code is the batched transformer forward, and
``llm.other_ms`` is defined as model time outside kernels, attention and
the KV cache.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence

from stats import mean, median

LAYERS = ("server", "serving", "kvcache", "llm", "core")

#: Spans that open a model pass; a kernel call under one of them is a
#: GEMV (decode) or a GEMM (prefill).
_PASS_KIND = {"serving.decode": "gemv", "llm.forward": "gemm"}


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "thread", "info")

    def __init__(self, name: str, layer: str, start: float,
                 parent: Optional["Span"], thread: int, info=None):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.thread = thread
        self.info = info

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: Sequence[Span]) -> Dict[Span, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: Dict[Span, list] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = {}
    for span in spans:
        covered = 0.0
        run_start = run_end = None
        for lo, hi in sorted(children.get(span, ())):
            lo, hi = max(lo, span.start), min(hi, span.end)
            if hi <= lo:
                continue
            if run_end is None or lo > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = lo, hi
            else:
                run_end = max(run_end, hi)
        if run_end is not None:
            covered += run_end - run_start
        out[span] = span.duration - covered
    return out


def _rows(a) -> int:
    return a.shape[0] if getattr(a, "ndim", 1) == 2 else 1


def _targets():
    """``(owner, attribute, span name, layer, info)`` for every traced call."""
    import repro.llm.layers as layers
    import repro.serving.batch as batch
    import repro.serving.engine as engine
    from repro.core.kernel import TMACKernel
    from repro.kvcache.paged import PagedSessionCache
    from repro.kvcache.pool import PagePool
    from repro.llm.model import TransformerModel

    def kernel_info(args, kwargs):
        return (args[0], _rows(args[1]))

    def tokens_info(args, kwargs):
        return len(args[1])

    return [
        (engine.ServingEngine, "step", "serving.step", "serving", None),
        (engine.ServingEngine, "run", "serving.run", "serving", None),
        (engine, "batched_decode_step", "serving.decode", "llm", tokens_info),
        (batch, "shared_input_forward", "llm.shared_input", "llm", None),
        (TransformerModel, "forward", "llm.forward", "llm", tokens_info),
        (layers, "attend", "llm.attend", "llm", None),
        (batch, "attend", "llm.attend", "llm", None),
        (PagePool, "create_session_cache", "kv.bind", "kvcache", None),
        (layers.KVCache, "append", "kv.write", "kvcache", None),
        (layers.KVCache, "stacked", "kv.gather", "kvcache", None),
        (PagedSessionCache, "write", "kv.write", "kvcache", None),
        (PagedSessionCache, "gather", "kv.gather", "kvcache", None),
        (PagedSessionCache, "reserve", "kv.reserve", "kvcache", None),
        (PagedSessionCache, "commit_prefix", "kv.commit", "kvcache", None),
        (PagedSessionCache, "release", "kv.release", "kvcache", None),
        (TMACKernel, "precompute", "core.lut", "core", None),
        (TMACKernel, "matmul", "core.kernel", "core", kernel_info),
        (TMACKernel, "matmul_with_table", "core.kernel", "core", kernel_info),
    ]


class Tracer:
    """Records spans around the library's layer boundaries."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        #: Entry time of the k-th ``ServingEngine.submit`` since install.
        self.submit_times: List[float] = []
        #: Per submitted request: token index -> time its stream hook fired.
        self.hook_times: List[Dict[int, float]] = []
        self._local = threading.local()
        self._originals: list = []

    def wrap(self, fn, name: str, layer: str, info=None):
        tracer = self

        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            span = Span(name, layer, tracer.clock(),
                        stack[-1] if stack else None, threading.get_ident(),
                        info(args, kwargs) if info is not None else None)
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = tracer.clock()
                stack.pop()
                tracer.spans.append(span)

        return traced

    def _timed_hook(self, hook, times: Dict[int, float]):
        traced = self.wrap(hook, "server.hook", "server")

        def timed(event):
            if not event.finished:
                times.setdefault(event.index, self.clock())
            return traced(event)

        return timed

    def _wrap_submit(self, fn):
        tracer = self
        traced = self.wrap(fn, "serving.submit", "serving")

        def submit(engine, *args, **kwargs):
            times: Dict[int, float] = {}
            tracer.submit_times.append(tracer.clock())
            tracer.hook_times.append(times)
            hook = kwargs.get("stream_hook")
            if hook is not None:
                kwargs["stream_hook"] = tracer._timed_hook(hook, times)
            return traced(engine, *args, **kwargs)

        return submit

    def install(self) -> "Tracer":
        from repro.serving.engine import ServingEngine

        if self._originals:
            raise RuntimeError("tracer already installed")
        patches = [(owner, attr, self.wrap(vars(owner)[attr], name, layer,
                                           info))
                   for owner, attr, name, layer, info in _targets()]
        patches.append((ServingEngine, "submit",
                        self._wrap_submit(vars(ServingEngine)["submit"])))
        for owner, attr, replacement in patches:
            self._originals.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, replacement)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()


def _kind(span: Span) -> Optional[str]:
    node = span.parent
    while node is not None:
        if node.name in _PASS_KIND:
            return _PASS_KIND[node.name]
        node = node.parent
    return None


def _ms(values: Sequence[float]) -> float:
    return mean(values) * 1e3


def span_metrics(tracer: Tracer, wall_s: float, completed: int,
                 sends: Sequence[float],
                 receipts: Sequence[Sequence[float]]) -> Dict[str, float]:
    """Per-layer metrics of one traced phase.

    ``wall_s`` is the phase's wall time; ``completed`` the requests it
    finished; ``sends[k]`` the client's send time and ``receipts[k][j]``
    the time the client held token ``j`` of the ``k``-th request submitted
    while the tracer was installed.  Self times are taken on the engine
    thread (the thread running ``ServingEngine.step``); the share of its
    wall time outside every span (idle waits, loop overhead) is
    ``trace.unattributed_share``.
    """
    spans = tracer.spans
    own = self_times(spans)
    by_name: Dict[str, List[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    steps = by_name.get("serving.step", [])
    threads = Counter(span.thread for span in steps)
    engine_thread = threads.most_common(1)[0][0] if threads else None

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for span in spans:
        if span.thread == engine_thread:
            layer_self[span.layer] += own[span]
    per_request = max(completed, 1)
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_share"] = layer_self[layer] / wall_s
    out["trace.unattributed_share"] = 1.0 - sum(layer_self.values()) / wall_s

    n = min(len(sends), len(tracer.submit_times))
    out["server.ingress_ms"] = 1e3 * median(
        [tracer.submit_times[k] - sends[k] for k in range(n)] or [0.0])
    egress = [receipts[k][j] - hooks[j]
              for k, hooks in enumerate(tracer.hook_times[:len(receipts)])
              for j in hooks if j < len(receipts[k])]
    out["server.egress_ms"] = 1e3 * median(egress or [0.0])

    out["serving.step_ms"] = _ms([s.duration for s in steps])
    out["serving.busy_share"] = sum(s.duration for s in steps) / wall_s
    out["serving.sched_ms"] = _ms([own[s] for s in steps])
    prefills = [s for s in by_name.get("llm.forward", [])
                if s.parent is not None and s.parent.name == "serving.step"]
    out["serving.prefill_ms"] = _ms([s.duration for s in prefills])
    out["serving.prefill_calls"] = len(prefills) / per_request
    decodes = by_name.get("serving.decode", [])
    out["serving.decode_ms"] = _ms([s.duration for s in decodes])
    first = [hooks[0] - tracer.submit_times[k]
             for k, hooks in enumerate(tracer.hook_times) if 0 in hooks]
    out["serving.ttft_engine_ms"] = 1e3 * median(first or [0.0])

    for name in ("bind", "write", "gather"):
        out[f"kvcache.{name}_ms"] = _ms(
            [s.duration for s in by_name.get(f"kv.{name}", [])])

    passes = by_name.get("llm.forward", []) + decodes
    other = sum(own[s] for s in spans
                if s.layer == "llm" and s.name != "llm.attend")
    out["llm.attend_ms"] = _ms(
        [s.duration for s in by_name.get("llm.attend", [])])
    out["llm.other_ms"] = 1e3 * other / max(len(passes), 1)

    luts = by_name.get("core.lut", [])
    out["core.lut_ms"] = _ms([s.duration for s in luts])
    out["core.lut_calls"] = len(luts) / per_request
    kernels = by_name.get("core.kernel", [])
    kinds: Dict[str, List[Span]] = {"gemv": [], "gemm": []}
    for span in kernels:
        kind = _kind(span)
        if kind is not None:
            kinds[kind].append(span)
    for kind, members in kinds.items():
        out[f"core.{kind}_ms"] = _ms([own[s] for s in members])
        out[f"core.{kind}_calls"] = len(members) / per_request
    out["core.rows_per_call"] = mean([s.info[1] for s in kernels])
    lookups = weight_bytes = 0
    for span in kernels:
        kernel, rows = span.info
        lookups += (rows * kernel.out_features
                    * (kernel.in_features // kernel.config.g) * kernel.bits)
        weight_bytes += kernel.weights.packed_bytes()
    kernel_s = sum(own[s] for s in kernels)
    out["core.lookups_per_s"] = lookups / kernel_s if kernel_s else 0.0
    tokens = sum(s.info for s in passes)
    out["core.weight_mb_per_token"] = (weight_bytes / tokens / 1e6
                                       if tokens else 0.0)
    return out
