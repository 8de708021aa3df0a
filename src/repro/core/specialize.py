"""Plan-specialized codes-dot kernels (hot-path codegen, built once per plan).

The generic :class:`~repro.core.executor.VectorizedExecutor` re-resolves
``table.quantized`` / ``scale_block`` / ``fast_aggregation`` / offsets-vs-
derived branches inside the per-bit-plane loop on *every* mpGEMV call.  The
csl-experiments breakdown referenced in the roadmap (74% overhead vs 26%
useful FMACS) is a warning about exactly this: a LUT kernel loses its
roofline to per-call dispatch, not to arithmetic.

This module is the repo's answer — at first use, one
:class:`SpecializedKernel` is compiled per ``(KernelPlan, table mode)``
and cached on the plan (same lock and lifetime as the lazy gather
tables).  Compilation resolves every branch into closures:

* the gather index (precomputed int32 offsets vs on-the-fly derivation)
  feeding one :func:`np.take` gather,
* the mirror-sign application, *fused* into the gather widening
  (``np.multiply(gathered, signs, dtype=..., order="C")`` — one pass
  instead of an ``astype`` followed by an in-place multiply, with a
  C-ordered result so the reshape and the block sum run contiguous),
* the aggregation mode (unquantized float sum / fine-granularity rescale /
  group-granularity fast aggregation / group-granularity exact sum).

Group-granularity tables with exact aggregation — the table mode of every
model the library builds by default — run in the paper's integer domain
(§3.3, fig10): gather, mirror signs and accumulation use int8/int16/int32
temporaries instead of float64, and a single float rescale per block
follows.  The other table modes keep the float64 pipeline.

Bit-exactness is load-bearing and asserted by the parity suites: every
fused operation is integer-exact or performs the same float64 operation
sequence as the generic path, so specialized results are *bit-identical*
to the generic vectorized executor (and therefore to the loop oracle) for
every table mode.  The integer domain matches the generic float64 walk
because every intermediate there is an exact small integer.
"""

from __future__ import annotations

import threading
from typing import Dict, List, NamedTuple, Optional

import numpy as np

from repro.core.aggregation import fast_aggregate

__all__ = [
    "SpecializationKey",
    "SpecializedKernel",
    "specialization_key",
    "compile_specialized",
    "maybe_specialized",
    "specialize_stats",
    "reset_specialize_stats",
]


class SpecializationKey(NamedTuple):
    """Everything that selects one compiled kernel for a plan.

    The fields are *normalized* (irrelevant flags forced to a canonical
    value) so configs that cannot differ in behaviour share one compiled
    kernel — e.g. ``fast_aggregation`` is meaningless for unquantized
    tables and never forks a second build.
    """

    mirrored: bool
    quantized: bool
    fine: bool  # scale_block == 1 (per-group dynamic scales)
    fast_aggregation: bool

    @property
    def int_domain(self) -> bool:
        """Integer-domain decode: quantized group tables, exact sums."""
        return self.quantized and not self.fine and not self.fast_aggregation


class _StatsBlock:
    """Lock-protected counter block with atomic ``snapshot`` / ``reset``.

    One lock covers every counter, so a snapshot taken mid-benchmark is
    internally consistent (all keys from the same instant) and a reset
    between benchmark phases can never interleave with a half-applied
    update — the stats-bleed the benchmarks used to suffer from.
    """

    def __init__(self, keys):
        self._lock = threading.Lock()
        self._counts: Dict[str, int] = {key: 0 for key in keys}

    def add(self, **deltas: int) -> None:
        with self._lock:
            for key, delta in deltas.items():
                self._counts[key] += delta

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counts)

    def reset(self) -> None:
        with self._lock:
            for key in self._counts:
                self._counts[key] = 0


_SPECIALIZE_STATS = _StatsBlock((
    "specialize_builds",  # kernels compiled (cache misses)
    "specialize_calls",  # span executions routed through a compiled kernel
    "specialize_int8_calls",  # of those, integer-domain (group tables)
    "specialize_generic_calls",  # spans that fell back to the generic path
))


def specialize_stats() -> Dict[str, int]:
    """Counters of the process-wide specialization cache (serving stats)."""
    return _SPECIALIZE_STATS.snapshot()


def reset_specialize_stats() -> None:
    """Zero the specialization counters (tests and benchmarks)."""
    _SPECIALIZE_STATS.reset()


def specialization_key(table, config) -> SpecializationKey:
    """Normalized key selecting the compiled kernel for ``(table, config)``.

    ``table`` decides the storage mode (mirrored/quantized/scale block);
    ``config`` contributes only the flags that matter for that mode, so
    e.g. toggling ``fast_aggregation`` on an unquantized run reuses the
    same compiled kernel instead of forking a duplicate.
    """
    quantized = bool(table.quantized)
    fine = quantized and table.scale_block == 1
    group = quantized and not fine
    fast = group and bool(getattr(config, "fast_aggregation", False))
    return SpecializationKey(
        mirrored=bool(table.mirrored),
        quantized=quantized,
        fine=fine,
        fast_aggregation=fast,
    )


class SpecializedKernel:
    """One compiled codes-dot pipeline for a plan + table mode.

    Holds only frozen plan artifacts (by reference) and scalars — never
    the plan itself — so evicting a plan from the :class:`PlanCache`
    releases the kernel with it and no closure keeps the arrays alive.

    The per-call entry points mirror the generic executor's span API:
    :meth:`iter_span` yields ``(qg0, qg1, chunk)`` codes-dot chunks and
    :meth:`recombine_span` applies the weight scales/zeros — both
    bit-identical to :class:`~repro.core.executor.VectorizedExecutor`.
    """

    def __init__(self, key: SpecializationKey, *, stored: int,
                 folded: List[np.ndarray], signs: Optional[List[np.ndarray]],
                 offsets: Optional[List[np.ndarray]], scales: np.ndarray,
                 sz: np.ndarray, alpha: float, beta: float, bits: int,
                 gpq: int, qgroups: int, out_features: int):
        self.key = key
        self.stored = stored
        self.folded = folded
        self.signs = signs
        self.offsets = offsets
        self.scales = scales  # weight scales [M, QG] (frozen, plan-owned)
        self.sz = sz  # precomputed scales * zeros [M, QG] (frozen)
        self.alpha = alpha
        self.beta = beta
        self.bits = bits
        self.gpq = gpq
        self.qgroups = qgroups
        self.out_features = out_features
        #: Bit-plane weights ``2**bit`` as python floats (the generic path
        #: computes ``float(1 << bit)`` per chunk per bit).
        self.bit_weights = [float(1 << bit) for bit in range(bits)]
        self._raw = self._make_raw()
        self._partial = self._make_partial()

    # -- compile-time closure construction ----------------------------- #

    def _make_raw(self):
        """The gather + sign driver: ``(flat, bit, j0, j1, m0, m1) ->
        [N, m1-m0, j1-j0]`` looked-up (and sign-reconstructed) values.

        Every branch of the generic ``_raw_chunk`` is resolved here once.
        The 2-D offset *view* indexes the flat table directly through
        :func:`np.take` (yielding the C-ordered 3-D result with no index
        flatten/copy), and the mirror signs are fused into the widening
        multiply — both bit-identical to the gather→astype→inplace-multiply
        sequence of the generic path.
        """
        offsets = self.offsets
        folded = self.folded
        signs = self.signs
        stored = self.stored

        if offsets is not None:
            def index(bit, j0, j1, m0, m1):
                return offsets[bit][m0:m1, j0:j1]
        else:
            # Very large weights: the plan skips offset precomputation;
            # derive the chunk's offsets from the folded indices on the fly.
            def index(bit, j0, j1, m0, m1):
                return (np.arange(j0, j1, dtype=np.int64)[None, :] * stored
                        + folded[bit][m0:m1, j0:j1])

        # Integer domain: int8 entries * int8 signs fit int16 exactly, so
        # the widening multiply (and the downstream int32 accumulation)
        # loses nothing versus float64 — the values are identical.
        out_dtype = np.int16 if self.key.int_domain else np.float64

        if signs is not None:
            def raw(flat, bit, j0, j1, m0, m1):
                off = index(bit, j0, j1, m0, m1)
                # order="C": the default "K" may lay the result out with N
                # fastest, which makes the reshape and block sum strided.
                return np.multiply(np.take(flat, off, axis=1),
                                   signs[bit][m0:m1, j0:j1],
                                   dtype=out_dtype, order="C")
        elif self.key.int_domain:
            def raw(flat, bit, j0, j1, m0, m1):
                # Unmirrored int8 entries pass through; the aggregation
                # widens to int32.
                return np.take(flat, index(bit, j0, j1, m0, m1), axis=1)
        else:
            def raw(flat, bit, j0, j1, m0, m1):
                return np.take(flat, index(bit, j0, j1, m0, m1),
                               axis=1).astype(np.float64)
        return raw

    def _make_partial(self):
        """The aggregation driver: ``(table, blocked, qg0, qg1, j0, j1) ->
        [N, m, qg1-qg0]`` per-quantization-group partials."""
        gpq = self.gpq

        if not self.key.quantized:
            def partial(table, blocked, qg0, qg1, j0, j1):
                return blocked.sum(axis=-1)
        elif self.key.fine:
            # Fine granularity: per-group scales applied before the float
            # accumulation, all chunk groups at once.
            def partial(table, blocked, qg0, qg1, j0, j1):
                scales = table.scales[:, j0:j1].reshape(
                    blocked.shape[0], 1, qg1 - qg0, gpq)
                return (blocked * scales).sum(axis=-1)
        elif self.key.fast_aggregation:
            def partial(table, blocked, qg0, qg1, j0, j1):
                return (fast_aggregate(blocked, axis=-1)
                        * table.scales[:, None, qg0:qg1])
        else:
            # Integer-domain accumulation: the int16 (or int8) products
            # sum exactly in int32 — the same integers the generic float64
            # walk accumulates — and one float rescale per block follows.
            def partial(table, blocked, qg0, qg1, j0, j1):
                aggregated = blocked.sum(axis=-1, dtype=np.int32)
                return aggregated * table.scales[:, None, qg0:qg1]
        return partial

    # -- per-call entry points ------------------------------------------ #

    def iter_span(self, table, group_sums, m0: int, m1: int, budget: int):
        """Codes-dot chunks over output columns ``[m0, m1)``.

        Bit-identical to the generic
        :meth:`VectorizedExecutor.iter_codes_dot_span` — same chunk walk,
        same per-bit operation sequence, branches pre-resolved.
        """
        n = table.num_rows
        m = m1 - m0
        gpq = self.gpq
        qgroups = self.qgroups
        alpha = self.alpha
        beta = self.beta
        bit_weights = self.bit_weights
        raw = self._raw
        partial_of = self._partial
        flat = table.values.reshape(n, -1)

        per_qgroup = n * m * gpq
        qg_chunk = max(1, min(qgroups, budget // max(1, per_qgroup)))

        for qg0 in range(0, qgroups, qg_chunk):
            qg1 = min(qg0 + qg_chunk, qgroups)
            j0 = qg0 * gpq
            j1 = qg1 * gpq
            chunk = np.zeros((n, m, qg1 - qg0), dtype=np.float64)
            sums = group_sums[:, None, qg0:qg1]
            for bit in range(self.bits):
                blocked = raw(flat, bit, j0, j1, m0, m1).reshape(
                    n, m, qg1 - qg0, gpq)
                partial = partial_of(table, blocked, qg0, qg1, j0, j1)
                chunk += bit_weights[bit] * (alpha * partial + beta * sums)
            yield qg0, qg1, chunk

    def recombine_span(self, table, group_sums, m0: int, m1: int,
                       budget: int) -> np.ndarray:
        """Scale/zero recombination over output columns ``[m0, m1)``.

        The ``scales * zeros`` product is precomputed once per plan (same
        float32 elementwise product the generic path computes per call),
        so the per-quantization-group loop does two fused multiply-adds
        instead of three multiplies and two adds.
        """
        n = group_sums.shape[0]
        scales = self.scales
        sz = self.sz
        out = np.zeros((n, m1 - m0), dtype=np.float64)
        for qg0, qg1, chunk in self.iter_span(table, group_sums, m0, m1,
                                              budget):
            for qg in range(qg0, qg1):
                out += scales[m0:m1, qg][None, :] * chunk[:, :, qg - qg0]
                out -= sz[m0:m1, qg][None, :] * group_sums[:, qg][:, None]
        return out


def compile_specialized(plan, key: SpecializationKey,
                        tables=None) -> SpecializedKernel:
    """Compile one specialized kernel for ``plan`` under ``key``.

    ``tables`` lets :meth:`KernelPlan._build_specialized_locked` pass the
    gather metadata it already built under the plan lock (re-entering
    ``lookup_tables`` there would self-deadlock); other callers leave it
    ``None``.  Works against any plan-shaped object exposing the
    :class:`~repro.core.plan.KernelPlan` span-pipeline surface — including
    the process executor's worker-side ``_WorkerPlan`` reconstruction.
    """
    if tables is None:
        tables = plan.lookup_tables(key.mirrored)
    scales = plan.weights.scales
    zeros = plan.weights.zeros
    # Precompute the recombination's scale*zero product once (float32 in,
    # float32 out — the exact per-call product of the generic path), and
    # freeze it: it is published to every executor thread/process with
    # the same lifetime as the plan's other artifacts.
    sz = np.multiply(scales, zeros)
    sz.setflags(write=False)
    kernel = SpecializedKernel(
        key,
        stored=tables.stored,
        folded=tables.folded,
        signs=tables.signs,
        offsets=tables.offsets,
        scales=scales,
        sz=sz,
        alpha=plan.transform.alpha,
        beta=plan.transform.beta,
        bits=plan.bits,
        gpq=plan.groups_per_qgroup,
        qgroups=plan.num_qgroups,
        out_features=plan.out_features,
    )
    _SPECIALIZE_STATS.add(specialize_builds=1)
    return kernel


def maybe_specialized(plan, table, config) -> Optional[SpecializedKernel]:
    """The specialized kernel for this dispatch, or ``None`` for generic.

    Returns ``None`` when specialization is disabled
    (``TMACConfig(specialize=False)`` / ``REPRO_SPECIALIZE=0``) or the
    plan object cannot cache kernels (no ``specialized`` method).  Called
    once per span execution — the per-call cost is one dict hit on the
    plan's cache.
    """
    if not getattr(config, "specialize", False):
        _SPECIALIZE_STATS.add(specialize_generic_calls=1)
        return None
    getter = getattr(plan, "specialized", None)
    if getter is None:
        _SPECIALIZE_STATS.add(specialize_generic_calls=1)
        return None
    key = specialization_key(table, config)
    kernel = getter(key)
    if key.int_domain:
        _SPECIALIZE_STATS.add(specialize_calls=1, specialize_int8_calls=1)
    else:
        _SPECIALIZE_STATS.add(specialize_calls=1)
    return kernel
