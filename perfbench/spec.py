"""Workload definitions and their seeded inputs.

Each workload names a model, an engine configuration and a traffic shape.
Inputs (prompts and, for the open loop, arrival times) are a pure function
of ``(workload, seed, seconds, phase)``: the same arguments always give the
same requests, and the program under test only ever sees those requests.
Model weights and warm-up traffic are fixed and do not depend on the seed,
so set-up does the same work in every run.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

#: Seed of the model weights (the same checkpoint in every run).
WEIGHT_SEED = 0
#: Seed of the warm-up requests.
WARMUP_SEED = 12345
#: KV page size the paged workloads run with (the library default).
PAGE_SIZE = 16
VOCAB = 199


@dataclass(frozen=True)
class Request:
    """One generation request as the client sends it."""

    prompt: Tuple[int, ...]
    max_new_tokens: int
    #: Seconds after the phase start at which the request is due (open
    #: loop only; closed loops send as soon as the previous one returns).
    due_s: Optional[float] = None


@dataclass(frozen=True)
class Workload:
    """A named traffic mix over one model and engine configuration."""

    name: str
    hidden: int
    layers: int
    max_seq_len: int
    #: ``get_backend("tmac", **backend)`` arguments.
    backend: Dict
    #: ``ServingEngine`` keyword arguments (``{}`` = library defaults).
    engine: Dict
    max_new_tokens: int
    #: Requests replayed through the loop-executor oracle per phase.
    oracle_checks: int

    def arch(self):
        from repro.llm import tiny_arch

        return tiny_arch(hidden_size=self.hidden,
                         intermediate_size=2 * self.hidden,
                         num_layers=self.layers, num_heads=4,
                         num_kv_heads=4, vocab_size=VOCAB,
                         max_seq_len=self.max_seq_len)


#: decode_single: prompt length.
DECODE_PROMPT = 8
#: prefill_batch: prompts per offline round and their length range.
PREFILL_ROUND = 16
PREFILL_LEN = (64, 128)
#: chat_shared_prefix: shared system prefix, unique suffix range, rate.
CHAT_PREFIX = 48
CHAT_SUFFIX = (8, 24)
CHAT_RATE = 6.0

#: Largest oracle logit gap at which a served token may differ from the
#: oracle's (a near tie); twice the largest shift chunked prefill caused on
#: prefill_batch prompts (0.053).
NEAR_TIE_LOGIT = 0.1

#: Limits behind chat_shared_prefix's ``slo_attainment``: a request meets
#: its objective when its TTFT (from its due time) and its mean gap
#: between output tokens are both within these.
SLO_TTFT_MS = 150.0
SLO_TPOT_MS = 40.0

WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload(
            name="decode_single",
            hidden=256, layers=4, max_seq_len=128,
            backend={"bitnet": True},
            engine={},
            max_new_tokens=64,
            oracle_checks=1,
        ),
        Workload(
            name="prefill_batch",
            hidden=128, layers=4, max_seq_len=256,
            backend={"bits": 4, "group_size": 32},
            engine={"max_batch_size": 8, "prefill_chunk": 32,
                    "kv_cache_bytes": 8 << 20},
            max_new_tokens=4,
            oracle_checks=3,
        ),
        Workload(
            name="chat_shared_prefix",
            hidden=64, layers=2, max_seq_len=128,
            backend={"bits": 4, "group_size": 32},
            engine={"max_batch_size": 8, "prefill_chunk": 32,
                    "kv_cache_bytes": 2 << 20},
            max_new_tokens=16,
            oracle_checks=12,
        ),
    )
}


def _rng(seed: int, name: str, phase: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode()), phase])


def _tokens(rng: np.random.Generator, n: int) -> Tuple[int, ...]:
    return tuple(int(t) for t in rng.integers(0, VOCAB, size=n))


def make_inputs(name: str, seed: int, seconds: float,
                phase: int = 0) -> List[Request]:
    """The requests of one measured phase of workload ``name``.

    Closed-loop workloads get more requests than a phase of ``seconds``
    can use; the client takes them in order.  The open loop gets the
    arrival schedule of ``seconds``.
    """
    workload = WORKLOADS[name]
    rng = _rng(seed, name, phase)
    out = workload.max_new_tokens
    if name == "decode_single":
        count = int(seconds * 4) + 8
        return [Request(_tokens(rng, DECODE_PROMPT), out)
                for _ in range(count)]
    if name == "prefill_batch":
        requests: List[Request] = []
        first_pages = set()
        for _ in range(int(seconds // 4) + 2):
            # One prompt per stratum of the length range, in seeded order,
            # so every round carries the same amount of prefill work.
            lo, hi = PREFILL_LEN
            width = (hi - lo) // PREFILL_ROUND
            lengths = [lo + width * i + int(rng.integers(0, width + 1))
                       for i in range(PREFILL_ROUND)]
            for length in rng.permutation(lengths):
                prompt = _tokens(rng, int(length))
                # Unique first pages guarantee zero prefix-cache hits.
                while prompt[:PAGE_SIZE] in first_pages:
                    prompt = _tokens(rng, int(length))
                first_pages.add(prompt[:PAGE_SIZE])
                requests.append(Request(prompt, out))
        return requests
    if name == "chat_shared_prefix":
        # A Poisson process conditioned on its count: round(rate * seconds)
        # arrivals, uniformly spread over the phase, so every run offers
        # the same load.
        prefix = _tokens(rng, CHAT_PREFIX)
        count = round(CHAT_RATE * seconds)
        dues = np.sort(rng.uniform(0.0, seconds, size=count))
        return [Request(prefix + _tokens(rng, int(rng.integers(
                    CHAT_SUFFIX[0], CHAT_SUFFIX[1] + 1))), out,
                        due_s=float(due))
                for due in dues]
    raise KeyError(f"unknown workload {name!r}")


def warmup_inputs(name: str) -> List[Request]:
    """Seed-independent requests that compile every kernel path once."""
    rng = np.random.default_rng(WARMUP_SEED)
    if name == "decode_single":
        return [Request(_tokens(rng, DECODE_PROMPT), 4)]
    if name == "prefill_batch":
        return [Request(_tokens(rng, 40), 2) for _ in range(2)]
    if name == "chat_shared_prefix":
        prefix = _tokens(rng, CHAT_PREFIX)
        return [Request(prefix + _tokens(rng, 12), 4) for _ in range(2)]
    raise KeyError(f"unknown workload {name!r}")
