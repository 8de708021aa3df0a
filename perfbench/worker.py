"""One serving process of the benchmark: set up, measure, check outputs.

``run.py`` starts this script in a fresh interpreter.  It builds the
workload's model and serving stack, warms it up and prints ``READY``; the
parent times set-up from process start to that line.  With
``--setup-only`` it then shuts down.  Otherwise it runs the measured
phase(s), replays a seeded subset of the requests through the loop-executor
oracle and prints one JSON object as its last line.

With ``--trace 1`` the measured time is split in two phases over fresh
inputs: the first untraced, the second with :class:`tracing.Tracer`
installed, so the per-layer numbers and the tracing overhead come from the
same process.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import resource
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from repro.backends import get_backend  # noqa: E402
from repro.core.config import GatewayConfig, TMACConfig  # noqa: E402
from repro.llm import Generator, TransformerModel  # noqa: E402
from repro.llm.model import generate_random_weights  # noqa: E402
from repro.server import serve_model  # noqa: E402
from repro.server.client import GatewayError, stream_completion  # noqa: E402
from repro.server.runner import EngineRunner  # noqa: E402
from repro.serving.engine import ServingEngine  # noqa: E402

import spec  # noqa: E402
from spec import Request, Workload  # noqa: E402
from stats import mean, median, tail  # noqa: E402
from tracing import Tracer, span_metrics  # noqa: E402

clock = time.perf_counter

#: Longest a phase may wait for its in-flight requests after its schedule.
DRAIN_TIMEOUT_S = 60.0


@dataclass
class Outcome:
    """What the client saw of one request."""

    request: Request
    due: float = 0.0
    sent: float = 0.0
    receipts: List[float] = field(default_factory=list)
    tokens: List[int] = field(default_factory=list)
    finish_reason: Optional[str] = None
    done_at: Optional[float] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return (self.error is None and self.finish_reason == "length"
                and len(self.tokens) == self.request.max_new_tokens)

    def on_event(self, event) -> None:
        if event.finished:
            self.finish_reason = event.finish_reason
            self.done_at = clock()
        else:
            self.receipts.append(clock())
            self.tokens.append(int(event.token))


@dataclass
class Phase:
    outcomes: List[Outcome]
    wall_s: float
    in_flight_at_end: int = 0


def build_model(workload: Workload, **config) -> TransformerModel:
    arch = workload.arch()
    weights = generate_random_weights(arch, seed=spec.WEIGHT_SEED)
    return TransformerModel(
        arch, engine=get_backend("tmac", **workload.backend, **config),
        weights=weights)


def _check_exhausted(index: int, requests: List[Request], seconds: float):
    if index >= len(requests) and math.isfinite(seconds):
        raise RuntimeError("workload inputs ran out before the phase ended")


class Bench:
    """Sets up one workload's serving stack and sends it requests.

    Subclasses start the engine or server (``start``), run a phase of
    requests (``phase``), read the engine counters (``stats``) and shut
    down (``close``).
    """

    def __init__(self, workload: Workload):
        self.workload = workload

    async def setup(self) -> Dict[str, float]:
        """Build the model, start serving, warm up; time each part."""
        t0 = clock()
        self.model = build_model(self.workload)
        t1 = clock()
        await self.start()
        t2 = clock()
        await self.phase(spec.warmup_inputs(self.workload.name), math.inf)
        return {"model_s": t1 - t0, "server_s": t2 - t1,
                "warmup_s": clock() - t2}

    async def close(self) -> None:
        pass


class DecodeSingle(Bench):
    """One streaming HTTP client in a closed loop through the gateway."""

    async def start(self) -> None:
        self.gateway = serve_model(self.model, GatewayConfig(port=0),
                                   **self.workload.engine)
        self.gateway.runner.start()
        self.host, self.port = await self.gateway.start()

    async def _one(self, request: Request) -> Outcome:
        outcome = Outcome(request)
        outcome.due = outcome.sent = clock()
        try:
            stream = await stream_completion(
                self.host, self.port,
                {"prompt": list(request.prompt),
                 "max_tokens": request.max_new_tokens})
            async for chunk in stream:
                choice = chunk["choices"][0]
                if choice["token"] is None:
                    outcome.finish_reason = choice["finish_reason"]
                else:
                    outcome.receipts.append(clock())
                    outcome.tokens.append(int(choice["token"]))
        except (GatewayError, OSError, EOFError, ValueError) as exc:
            outcome.error = repr(exc)
        outcome.done_at = clock()
        return outcome

    async def phase(self, requests: List[Request], seconds: float) -> Phase:
        outcomes: List[Outcome] = []
        start = clock()
        index = 0
        while index < len(requests) and clock() - start < seconds:
            outcomes.append(await self._one(requests[index]))
            index += 1
        _check_exhausted(index, requests, seconds)
        return Phase(outcomes, clock() - start)

    def stats(self) -> Dict[str, float]:
        return self.gateway.runner.stats().result()["serving"]

    async def close(self) -> None:
        await self.gateway.stop()
        self.gateway.runner.stop()


class PrefillBatch(Bench):
    """Offline rounds: 16 ``ServingEngine.submit`` calls, then ``run()``."""

    async def start(self) -> None:
        self.engine = ServingEngine(self.model, **self.workload.engine)

    def _round(self, requests: List[Request]) -> List[Outcome]:
        outcomes = []
        sessions = []
        for request in requests:
            outcome = Outcome(request)
            outcome.due = outcome.sent = clock()
            try:
                sessions.append(self.engine.submit(
                    list(request.prompt),
                    max_new_tokens=request.max_new_tokens,
                    stream_hook=outcome.on_event))
            except ValueError as exc:
                outcome.error = repr(exc)
            outcomes.append(outcome)
        self.engine.run()
        for session_id in sessions:
            self.engine.release(session_id)
        return outcomes

    async def phase(self, requests: List[Request], seconds: float) -> Phase:
        outcomes: List[Outcome] = []
        start = clock()
        index = 0
        last = 0.0
        # Rounds are long, so a round starts only when ending it lands
        # closer to ``seconds`` than stopping now does.
        while index < len(requests) and clock() - start + last / 2 < seconds:
            batch = requests[index:index + spec.PREFILL_ROUND]
            begun = clock()
            outcomes.extend(self._round(batch))
            last = clock() - begun
            index += len(batch)
        _check_exhausted(index, requests, seconds)
        return Phase(outcomes, clock() - start)

    def stats(self) -> Dict[str, float]:
        return self.engine.serving_stats()


class ChatSharedPrefix(Bench):
    """Open-loop arrivals through ``EngineRunner.submit`` with stream hooks."""

    async def start(self) -> None:
        self.runner = EngineRunner(
            ServingEngine(self.model, **self.workload.engine)).start()

    async def phase(self, requests: List[Request], seconds: float) -> Phase:
        loop = asyncio.get_running_loop()
        outcomes: List[Outcome] = []
        finished: List[asyncio.Future] = []
        submits = []
        start = clock()
        for request in requests:
            due = start + (request.due_s or 0.0)
            delay = due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            outcome = Outcome(request, due=due)
            done = loop.create_future()

            def on_event(event, outcome=outcome, done=done):
                outcome.on_event(event)
                if event.finished and not done.done():
                    done.set_result(None)

            def hook(event, on_event=on_event):
                loop.call_soon_threadsafe(on_event, event)

            outcome.sent = clock()
            submits.append(self.runner.submit(
                prompt_tokens=list(request.prompt),
                max_new_tokens=request.max_new_tokens, stream_hook=hook))
            outcomes.append(outcome)
            finished.append(done)
        in_flight = sum(1 for done in finished if not done.done())
        for outcome, submit, done in zip(outcomes, submits, finished):
            try:
                await asyncio.wait_for(asyncio.wrap_future(submit),
                                       DRAIN_TIMEOUT_S)
                await asyncio.wait_for(done, DRAIN_TIMEOUT_S)
            except (ValueError, asyncio.TimeoutError) as exc:
                outcome.error = repr(exc)
        ends = [o.done_at for o in outcomes if o.done_at is not None]
        wall = (max(ends) if ends else clock()) - start
        for submit in submits:
            if submit.done() and submit.exception() is None:
                self.runner.reap(submit.result())
        return Phase(outcomes, wall, in_flight_at_end=in_flight)

    def stats(self) -> Dict[str, float]:
        return self.runner.stats().result()["serving"]

    async def close(self) -> None:
        self.runner.stop()


BENCHES = {
    "decode_single": DecodeSingle,
    "prefill_batch": PrefillBatch,
    "chat_shared_prefix": ChatSharedPrefix,
}


def _tpot_ms(outcome: Outcome) -> float:
    """Mean gap between consecutive output tokens of one request."""
    receipts = outcome.receipts
    return (receipts[-1] - receipts[0]) * 1e3 / max(len(receipts) - 1, 1)


def end_to_end(phase: Phase, slo: bool) -> Dict[str, object]:
    """End-to-end metrics of one phase (tail percentiles may be None)."""
    done = [o for o in phase.outcomes if o.ok]
    ttft = [(o.receipts[0] - o.due) * 1e3 for o in done]
    tpot = [_tpot_ms(o) for o in done]
    gaps = [(b - a) * 1e3 for o in done
            for a, b in zip(o.receipts, o.receipts[1:])]
    out: Dict[str, object] = {
        "tok_s": sum(len(o.tokens) for o in done) / phase.wall_s,
        "prefill_tok_s": sum(len(o.request.prompt) for o in done)
        / phase.wall_s,
        "ttft_mean_ms": mean(ttft) if ttft else None,
        "ttft_p50_ms": median(ttft) if ttft else None,
        "ttft_p90_ms": tail(ttft, 0.9),
        "tpot_p50_ms": median(tpot) if tpot else None,
        "itl_p50_ms": median(gaps) if gaps else None,
        "itl_p90_ms": tail(gaps, 0.9),
        "ttft_n": len(ttft),
        "itl_n": len(gaps),
        "sent": len(phase.outcomes),
        "succeeded": len(done),
        "failed": len(phase.outcomes) - len(done),
        "wall_s": phase.wall_s,
    }
    if slo:
        met = sum(1 for first, per_token in zip(ttft, tpot)
                  if first <= spec.SLO_TTFT_MS and per_token <= spec.SLO_TPOT_MS)
        lags = [(o.sent - o.due) * 1e3 for o in phase.outcomes]
        out.update({
            "slo_attainment": met / max(len(phase.outcomes), 1),
            "gen_lag_p99_ms": tail(lags, 0.99),
            "gen_lag_max_ms": max(lags) if lags else 0.0,
            "in_flight_at_end": phase.in_flight_at_end,
        })
    return out


def check_outputs(workload: Workload, phases: List[Phase], seed: int
                  ) -> Dict[str, int]:
    """Replay a seeded subset of each phase through the loop-executor oracle.

    The oracle is a sequential :class:`Generator` over a model built from
    the same weights with ``TMACConfig(executor="loop")``.  Served greedy
    tokens must equal its tokens.  Chunked prefill and prefix reuse sum
    attention in another order than a whole-prompt prefill, and the int8
    lookup tables turn that last-bit difference into logit shifts of up to
    about 0.05, so a served token may differ where the oracle's top two
    logits nearly tie.  A first divergence whose oracle logit gap is at most
    :data:`spec.NEAR_TIE_LOGIT` is counted as a near tie; any other
    divergence is a mismatch and fails the request.
    """
    oracle = Generator(build_model(workload,
                                   config=TMACConfig(executor="loop")))
    rng = np.random.default_rng([seed, 99])
    counts = {"checked": 0, "exact": 0, "near_ties": 0, "mismatched": 0}
    for phase in phases:
        candidates = [o for o in phase.outcomes if o.ok]
        count = min(workload.oracle_checks, len(candidates))
        for index in sorted(rng.choice(len(candidates), count,
                                       replace=False)):
            outcome = candidates[index]
            expected = oracle.generate(
                list(outcome.request.prompt),
                max_new_tokens=outcome.request.max_new_tokens,
                keep_logits=True)
            counts["checked"] += 1
            want = expected.generated_tokens
            if want == outcome.tokens:
                counts["exact"] += 1
                continue
            step = next(i for i, (a, b) in enumerate(zip(want, outcome.tokens))
                        if a != b)
            logits = expected.logits_history[step]
            gap = float(logits[want[step]] - logits[outcome.tokens[step]])
            if gap <= spec.NEAR_TIE_LOGIT:
                counts["near_ties"] += 1
            else:
                counts["mismatched"] += 1
                outcome.error = (f"token {step} is {outcome.tokens[step]}, "
                                 f"the loop oracle gives {want[step]} "
                                 f"(logit gap {gap:.3g})")
    return counts


def _delta(after: Dict, before: Dict, key: str) -> float:
    return float(after.get(key, 0.0)) - float(before.get(key, 0.0))


def engine_metrics(before: Dict, after: Dict) -> Dict[str, float]:
    """Per-layer metrics read from the engine's own counters."""
    steps = _delta(after, before, "decode_steps")
    built = _delta(after, before, "lut_precomputes")
    reused = _delta(after, before, "lut_reuses")
    requested = _delta(after, before, "prefix_requested_tokens")
    return {
        "serving.batch_mean": (_delta(after, before, "batched_tokens")
                               / steps if steps else 0.0),
        "serving.preemptions": _delta(after, before, "preemptions"),
        "serving.lut_reuse_ratio": (reused / (built + reused)
                                    if built + reused else 0.0),
        "kvcache.prefix_hit_rate": (_delta(after, before,
                                           "prefix_hit_tokens") / requested
                                    if requested else 0.0),
        "kvcache.peak_kv_mb": float(after.get("peak_kv_bytes", 0)) / 1e6,
    }


async def main_async(args) -> Dict[str, object]:
    workload = spec.WORKLOADS[args.workload]
    bench = BENCHES[workload.name](workload)
    setup = await bench.setup()
    print("READY", flush=True)
    if args.setup_only:
        await bench.close()
        return {"setup": setup}

    result: Dict[str, object] = {"setup": setup}
    slo = workload.name == "chat_shared_prefix"
    if args.trace:
        half = args.seconds / 2
        plain = await bench.phase(
            spec.make_inputs(workload.name, args.seed, half, 0), half)
        before = bench.stats()
        tracer = Tracer().install()
        try:
            traced = await bench.phase(
                spec.make_inputs(workload.name, args.seed, half, 1), half)
        finally:
            tracer.uninstall()
        after = bench.stats()
        phases = [plain, traced]
        completed = [o for o in traced.outcomes if o.ok]
        per_layer = span_metrics(
            tracer, traced.wall_s, len(completed),
            sends=[o.sent for o in traced.outcomes],
            receipts=[o.receipts for o in traced.outcomes])
        per_layer.update(engine_metrics(before, after))
        plain_tok_s = end_to_end(plain, slo)["tok_s"]
        traced_tok_s = end_to_end(traced, slo)["tok_s"]
        per_layer["trace.overhead"] = (1.0 - traced_tok_s / plain_tok_s
                                       if plain_tok_s else 0.0)
        result["per_layer"] = per_layer
    else:
        phases = [await bench.phase(
            spec.make_inputs(workload.name, args.seed, args.seconds, 0),
            args.seconds)]
    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                             .ru_maxrss / 1024.0)
    await bench.close()
    result["oracle"] = check_outputs(workload, phases, args.seed)
    result["phases"] = [end_to_end(phase, slo) for phase in phases]
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    result = asyncio.run(main_async(args))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
