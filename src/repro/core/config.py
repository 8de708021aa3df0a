"""Configuration of the T-MAC mpGEMM kernel.

A :class:`TMACConfig` captures every knob the paper's design section exposes:

* the LUT group size ``g`` (Section 3.1, default 4 — the value that fits a
  single NEON ``TBL`` / AVX2 ``PSHUF`` register),
* the activation data type,
* the table-storage reductions (mirror consolidation, table quantization —
  Section 3.3),
* the data-layout optimizations (tiling, weight permutation, weight
  interleaving — Section 3.2),
* fast 8-bit aggregation (Section 4), off by default because it costs
  accuracy,
* the bit-serial linear transformation end points ``s0``/``s1``
  (Section 4, "Bit-serial linear transformation"), defaulting to ``(-1, +1)``.

The ablation study (Figure 10) is reproduced by toggling these flags from
the baseline ``TM-base`` configuration up to the full ``T-MAC`` one; see
:func:`ablation_stages`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.core.tiling import TileConfig

__all__ = [
    "TMACConfig",
    "GatewayConfig",
    "ablation_stages",
    "ABLATION_STAGE_NAMES",
    "DEFAULT_PARALLEL_THRESHOLD",
]

#: Minimum gather work (``N * M * K/g`` lookup elements) before the
#: parallel executor shards a call across its worker pool; smaller calls
#: run the serial vectorized path, which is faster than paying fork/join
#: overhead on a kernel that finishes in microseconds.
DEFAULT_PARALLEL_THRESHOLD = 1 << 16


def _default_executor() -> str:
    """Executor default, overridable via ``REPRO_EXECUTOR`` (CI matrix)."""
    return os.environ.get("REPRO_EXECUTOR", "vectorized")


def _default_num_threads() -> Optional[int]:
    """Thread-count default, overridable via ``REPRO_NUM_THREADS``."""
    raw = os.environ.get("REPRO_NUM_THREADS")
    if raw is None or raw == "":
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_NUM_THREADS must be an integer, got {raw!r}"
        ) from None


def _default_specialize() -> bool:
    """Specialization default (on), overridable via ``REPRO_SPECIALIZE``."""
    return os.environ.get("REPRO_SPECIALIZE", "1") not in ("0", "false", "no")


def _default_chunk_elements() -> Optional[int]:
    """Chunk-budget default, overridable via ``REPRO_CHUNK_ELEMENTS``."""
    raw = os.environ.get("REPRO_CHUNK_ELEMENTS")
    if raw is None or raw == "":
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_CHUNK_ELEMENTS must be an integer, got {raw!r}"
        ) from None


def _default_num_workers() -> Optional[int]:
    """Process-worker default, overridable via ``REPRO_NUM_WORKERS``."""
    raw = os.environ.get("REPRO_NUM_WORKERS")
    if raw is None or raw == "":
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_NUM_WORKERS must be an integer, got {raw!r}"
        ) from None


@dataclass(frozen=True)
class TMACConfig:
    """Configuration for the T-MAC LUT-based mpGEMM kernel.

    Attributes
    ----------
    bits:
        Weight bit width ``b`` (1..4 evaluated in the paper).
    g:
        LUT group size: the number of one-bit weights grouped into a single
        table index.  ``2**g`` is the table length before mirror
        consolidation.
    act_dtype:
        Data type the lookup tables are built in before table quantization:
        ``"float16"`` or ``"float32"``.
    mirror_consolidation:
        Store only half the table and reconstruct the mirrored half by
        negation (lossless).
    table_quantization:
        Quantize table entries from fp16 to int8 with a dynamic scale.
    fast_aggregation:
        Aggregate int8 lookup results with averaging (``rhadd``/``avg``)
        instructions instead of widening adds.  Faster but lossy.
    lut_scale_granularity:
        ``"group"`` (one scale per weight-quantization group, required for
        integer-domain accumulation and fast aggregation) or ``"fine"``
        (one scale per g-element table, the finest dynamic granularity).
    s0 / s1:
        Values the one-bit weights {0, 1} are linearly mapped to before the
        table lookup.  The paper finds (-1, +1) optimal.
    tiling / permute_weights / interleave_weights:
        The LUT-centric data-layout optimizations of Section 3.2.  They do
        not change numerical results; they change the instruction/memory
        profile used by the cost model.
    tile_config:
        Explicit tile configuration; ``None`` lets the kernel (or the tuner)
        pick a default for the target device.
    executor:
        Online executor used by :class:`~repro.core.kernel.TMACKernel`:
        ``"vectorized"`` (default — batched numpy across quantization groups
        and bit planes), ``"parallel"`` (the vectorized pipeline sharded
        over output-column tiles on a persistent worker thread pool),
        ``"process"`` (the same sharding on a persistent worker *process*
        pool with plans published through shared memory — breaks the GIL)
        or ``"loop"`` (the reference per-group/per-bit Python loops, kept
        as the numerical oracle).  All compute bit-identical results; see
        :mod:`repro.core.executor`.  The default can be overridden with the
        ``REPRO_EXECUTOR`` environment variable (the CI matrix uses this to
        run the whole suite under the parallel executor).
    num_threads:
        Worker count for the parallel executor; ``None`` (default) uses
        ``os.cpu_count()``.  Ignored by the serial executors.  Default
        overridable via ``REPRO_NUM_THREADS``.
    num_workers:
        Worker-*process* count for the process executor; ``None`` (default)
        uses ``os.cpu_count()`` and lets the cost model delegate
        GIL-tolerant shapes to the thread pool, while an explicit count
        pins the call to the process pool.  Ignored by the other
        executors.  Default overridable via ``REPRO_NUM_WORKERS``.
    parallel_threshold:
        Minimum gather work (``N * M * K/g`` elements) before the parallel
        or process executor shards a call; below it the serial vectorized
        path runs.
    specialize:
        Use plan-specialized codes-dot kernels
        (:mod:`repro.core.specialize`): branches resolved at first use per
        ``(plan, table mode)``, cached on the plan.  Bit-identical to the
        generic path; on by default.  ``REPRO_SPECIALIZE=0`` disables.
        Group-granularity quantized tables with exact aggregation run
        there in the integer domain (int8 gather, int16 signs, int32
        sums, one float rescale per block — paper §3.3).
    chunk_elements:
        Override of the executor's raw-gather element budget per chunk
        (``None`` uses the executor default).  Chunk boundaries never
        change results; this is a memory/locality knob for the tuner.
        Env: ``REPRO_CHUNK_ELEMENTS``.
    """

    bits: int = 4
    g: int = 4
    act_dtype: str = "float16"
    mirror_consolidation: bool = True
    table_quantization: bool = True
    fast_aggregation: bool = False
    lut_scale_granularity: str = "group"
    s0: float = -1.0
    s1: float = 1.0
    tiling: bool = True
    permute_weights: bool = True
    interleave_weights: bool = True
    tuned: bool = False
    tile_config: Optional[TileConfig] = None
    executor: str = field(default_factory=_default_executor)
    num_threads: Optional[int] = field(default_factory=_default_num_threads)
    num_workers: Optional[int] = field(default_factory=_default_num_workers)
    parallel_threshold: int = DEFAULT_PARALLEL_THRESHOLD
    specialize: bool = field(default_factory=_default_specialize)
    chunk_elements: Optional[int] = field(
        default_factory=_default_chunk_elements)
    name: str = "T-MAC"
    extra: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if not 1 <= self.bits <= 8:
            raise ValueError(f"bits must be in [1, 8], got {self.bits}")
        if not 1 <= self.g <= 8:
            raise ValueError(f"g must be in [1, 8], got {self.g}")
        if self.act_dtype not in ("float16", "float32"):
            raise ValueError(
                f"act_dtype must be 'float16' or 'float32', got {self.act_dtype!r}"
            )
        if self.lut_scale_granularity not in ("group", "fine"):
            raise ValueError(
                "lut_scale_granularity must be 'group' or 'fine', "
                f"got {self.lut_scale_granularity!r}"
            )
        if self.fast_aggregation and not self.table_quantization:
            raise ValueError(
                "fast_aggregation requires table_quantization (it averages "
                "int8 table entries)"
            )
        if self.s0 == self.s1:
            raise ValueError("s0 and s1 must differ")
        if self.num_threads is not None and self.num_threads < 1:
            raise ValueError(
                f"num_threads must be >= 1 (or None for cpu_count), "
                f"got {self.num_threads}"
            )
        if self.num_workers is not None and self.num_workers < 1:
            raise ValueError(
                f"num_workers must be >= 1 (or None for cpu_count), "
                f"got {self.num_workers}"
            )
        if self.parallel_threshold < 0:
            raise ValueError(
                f"parallel_threshold must be >= 0, got {self.parallel_threshold}"
            )
        if self.chunk_elements is not None and self.chunk_elements < 1:
            raise ValueError(
                f"chunk_elements must be >= 1 (or None for the executor "
                f"default), got {self.chunk_elements}"
            )
        # Imported lazily: repro.core.executor imports this module.  The
        # executor registry is the single source of valid names.
        from repro.core.executor import list_executors

        if self.executor not in list_executors():
            raise ValueError(
                f"executor must be one of {list_executors()}, "
                f"got {self.executor!r}"
            )

    @property
    def table_length(self) -> int:
        """Number of table entries stored per group (after consolidation)."""
        full = 1 << self.g
        return full // 2 if self.mirror_consolidation else full

    @property
    def table_entry_bytes(self) -> int:
        """Bytes per stored table entry."""
        if self.table_quantization:
            return 1
        return 2 if self.act_dtype == "float16" else 4

    def with_options(self, **kwargs) -> "TMACConfig":
        """Return a copy of this config with the given fields replaced."""
        return replace(self, **kwargs)


def _env_str(name: str, default: str) -> str:
    return os.environ.get(name, default)


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None


def _env_float(name: str, default: Optional[float]) -> Optional[float]:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"{name} must be a number, got {raw!r}") from None


@dataclass(frozen=True)
class GatewayConfig:
    """Knobs of the asyncio serving gateway (:mod:`repro.server`).

    Every default is overridable through a ``REPRO_GATEWAY_*`` environment
    variable (evaluated at construction, like ``REPRO_EXECUTOR`` /
    ``REPRO_NUM_THREADS`` for :class:`TMACConfig`), so deployments tune
    the frontend without code changes.

    Attributes
    ----------
    host / port:
        Listen address.  ``port=0`` binds an ephemeral port (tests, and
        the demo); the bound port is reported by ``Gateway.start()``.
        Env: ``REPRO_GATEWAY_HOST`` / ``REPRO_GATEWAY_PORT``.
    max_queue_depth:
        Backpressure bound on requests waiting for engine admission; once
        reached, new completions are rejected with HTTP 429 and a
        ``Retry-After`` header instead of growing the queue without
        bound.  Env: ``REPRO_GATEWAY_QUEUE_DEPTH``.
    default_timeout_s:
        Deadline applied to requests that do not carry their own
        ``timeout``; ``None`` (default) means no implicit deadline.
        Env: ``REPRO_GATEWAY_TIMEOUT_S``.
    retry_after_s:
        Floor of the ``Retry-After`` hint on 429 responses (the gateway
        raises it to its moving estimate of one request's service time).
        Env: ``REPRO_GATEWAY_RETRY_AFTER_S``.
    poll_interval_s:
        How long the engine-runner thread sleeps waiting for work when
        the engine is idle.  Env: ``REPRO_GATEWAY_POLL_S``.
    max_body_bytes:
        Largest accepted request body (413 beyond it).
        Env: ``REPRO_GATEWAY_MAX_BODY``.
    metrics_namespace:
        Prefix of every exported Prometheus metric name.
        Env: ``REPRO_GATEWAY_METRICS_NAMESPACE``.
    """

    host: str = field(
        default_factory=lambda: _env_str("REPRO_GATEWAY_HOST", "127.0.0.1"))
    port: int = field(
        default_factory=lambda: _env_int("REPRO_GATEWAY_PORT", 8080))
    max_queue_depth: int = field(
        default_factory=lambda: _env_int("REPRO_GATEWAY_QUEUE_DEPTH", 64))
    default_timeout_s: Optional[float] = field(
        default_factory=lambda: _env_float("REPRO_GATEWAY_TIMEOUT_S", None))
    retry_after_s: float = field(
        default_factory=lambda: _env_float("REPRO_GATEWAY_RETRY_AFTER_S", 1.0))
    poll_interval_s: float = field(
        default_factory=lambda: _env_float("REPRO_GATEWAY_POLL_S", 0.002))
    max_body_bytes: int = field(
        default_factory=lambda: _env_int("REPRO_GATEWAY_MAX_BODY", 1 << 20))
    metrics_namespace: str = field(
        default_factory=lambda: _env_str("REPRO_GATEWAY_METRICS_NAMESPACE",
                                         "gateway"))

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise ValueError(f"port must be in [0, 65535], got {self.port}")
        if self.max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}")
        if self.default_timeout_s is not None and self.default_timeout_s <= 0:
            raise ValueError(
                f"default_timeout_s must be > 0, got {self.default_timeout_s}")
        if self.retry_after_s <= 0:
            raise ValueError(
                f"retry_after_s must be > 0, got {self.retry_after_s}")
        if self.poll_interval_s <= 0:
            raise ValueError(
                f"poll_interval_s must be > 0, got {self.poll_interval_s}")
        if self.max_body_bytes < 1:
            raise ValueError(
                f"max_body_bytes must be >= 1, got {self.max_body_bytes}")
        if not self.metrics_namespace.replace("_", "").isalnum():
            raise ValueError(
                "metrics_namespace must be alphanumeric/underscore, got "
                f"{self.metrics_namespace!r}"
            )

    def with_options(self, **kwargs) -> "GatewayConfig":
        """Return a copy of this config with the given fields replaced."""
        return replace(self, **kwargs)


ABLATION_STAGE_NAMES = (
    "TM-base",
    "+TQ",
    "+Tiling",
    "+Perm.",
    "+Tuning",
    "T-MAC",
    "TM+FA",
)


def ablation_stages(bits: int = 4, g: int = 4) -> "list[TMACConfig]":
    """Build the cumulative optimization stages of the Figure 10 ablation.

    Stage order follows the paper: ``TM-base`` (hardware LUT intrinsics only,
    no memory optimization), then cumulatively table quantization, tiling,
    permutation, tuning, interleaving (= full T-MAC), and finally optional
    fast aggregation (TM+FA).
    """
    base = TMACConfig(
        bits=bits,
        g=g,
        mirror_consolidation=True,
        table_quantization=False,
        fast_aggregation=False,
        tiling=False,
        permute_weights=False,
        interleave_weights=False,
        tuned=False,
        name="TM-base",
    )
    stages = [base]
    stages.append(stages[-1].with_options(table_quantization=True, name="+TQ"))
    stages.append(stages[-1].with_options(tiling=True, name="+Tiling"))
    stages.append(stages[-1].with_options(permute_weights=True, name="+Perm."))
    stages.append(stages[-1].with_options(tuned=True, name="+Tuning"))
    stages.append(stages[-1].with_options(interleave_weights=True, name="T-MAC"))
    stages.append(stages[-1].with_options(fast_aggregation=True, name="TM+FA"))
    return stages
