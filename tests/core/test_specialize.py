"""Plan-specialized kernels: bit-exactness, cache behaviour, lifetimes.

The specialization cache lives on the plan (same lock as the lazy gather
tables), so the properties that matter are the plan cache's, one level
down: exactly one compile per ``(plan, SpecializationKey)`` no matter how
many executor threads race into a cold dispatch, eviction of a plan
releasing its compiled kernels (no leaked closures pinning the weight
arrays), and — above all — bit-identical results to the generic executor
and the loop oracle for every table mode, row count and worker count.
"""

import gc
import threading
import time
import weakref
from concurrent.futures import wait
from types import SimpleNamespace

import numpy as np
import pytest

import repro.core.specialize as spec_mod
from repro.core.config import TMACConfig
from repro.core.executor import get_executor, get_worker_pool
from repro.core.kernel import TMACKernel
from repro.core.plan import PlanCache, build_plan
from repro.core.specialize import (
    SpecializedKernel,
    compile_specialized,
    maybe_specialized,
    reset_specialize_stats,
    specialization_key,
    specialize_stats,
)
from repro.quant.uniform import quantize_weights
from repro.workloads.generator import gaussian_activation, gaussian_weights

HAMMER_THREADS = 8


def make_kernel(bits=4, m=64, k=128, group_size=32, seed=0, **config_kwargs):
    qw = quantize_weights(gaussian_weights(m, k, seed=seed), bits=bits,
                          group_size=group_size)
    config_kwargs.setdefault("executor", "vectorized")
    config = TMACConfig(bits=bits, **config_kwargs)
    return TMACKernel(qw, config)


def activations(n=3, k=128, seed=7):
    return gaussian_activation(n, k, seed=seed)


# --------------------------------------------------------------------- #
# Bit-exact parity with the generic executor
# --------------------------------------------------------------------- #


TABLE_MODES = {
    "unquantized": dict(table_quantization=False),
    "quantized_group": dict(table_quantization=True),
    "quantized_fine": dict(table_quantization=True,
                           lut_scale_granularity="fine"),
    "fast_aggregation": dict(table_quantization=True, fast_aggregation=True),
    "unmirrored": dict(mirror_consolidation=False),
}


@pytest.mark.parametrize("mode", sorted(TABLE_MODES))
def test_specialized_matches_generic(mode):
    spec = make_kernel(specialize=True, **TABLE_MODES[mode])
    generic = make_kernel(specialize=False, **TABLE_MODES[mode])
    a = activations()
    expected = generic.matmul(a)
    got = spec.matmul(a)
    np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("bits", [1, 2, 3, 4])
@pytest.mark.parametrize("group_size", [32, 64])
def test_specialized_parity_across_bit_widths(bits, group_size):
    spec = make_kernel(bits=bits, group_size=group_size, specialize=True)
    generic = make_kernel(bits=bits, group_size=group_size, specialize=False)
    a = activations()
    np.testing.assert_array_equal(spec.matmul(a), generic.matmul(a))


def test_int8_domain_bit_identical_to_float_domain():
    """fig10: the int8 decode path changes memory traffic, not values.

    Group tables always specialize to the integer domain; the generic walk
    (``specialize=False``) is the float64 domain for the same tables.
    """
    int8 = make_kernel(specialize=True)
    floats = make_kernel(specialize=False)
    a = activations()
    assert specialization_key(int8.precompute(a), int8.config).int_domain
    np.testing.assert_array_equal(int8.matmul(a), floats.matmul(a))


@pytest.mark.parametrize("executor,workers", [("parallel", 3),
                                              ("process", 2)])
def test_specialized_parity_under_pools(executor, workers):
    """Worker pools consume the same compiled kernels, bit-identically."""
    serial = make_kernel(m=128, k=256, specialize=True)
    kwargs = {"num_threads" if executor == "parallel" else "num_workers":
              workers}
    pooled = make_kernel(m=128, k=256, specialize=True, executor=executor,
                         parallel_threshold=1, **kwargs)
    a = activations(n=4, k=256)
    np.testing.assert_array_equal(pooled.matmul(a), serial.matmul(a))


def test_chunk_budget_does_not_change_results():
    baseline = make_kernel(specialize=True)
    chunked = make_kernel(specialize=True, chunk_elements=1 << 10)
    a = activations()
    np.testing.assert_array_equal(chunked.matmul(a), baseline.matmul(a))


# --------------------------------------------------------------------- #
# Multi-row parity against the loop oracle
# --------------------------------------------------------------------- #


ROW_COUNTS = [1, 2, 3, 8, 17, 32]


@pytest.mark.parametrize("n", ROW_COUNTS)
@pytest.mark.parametrize("mode", sorted(TABLE_MODES))
def test_multirow_matches_loop_oracle_and_single_rows(mode, n):
    """Batched rows are bitwise the loop oracle's and each row's own call."""
    kernel = make_kernel(specialize=True, **TABLE_MODES[mode])
    oracle = make_kernel(executor="loop", **TABLE_MODES[mode])
    a = activations(n=n, seed=100 + n)
    got = kernel.matmul(a)
    np.testing.assert_array_equal(got, oracle.matmul(a))
    for i in range(n):
        np.testing.assert_array_equal(got[i:i + 1], kernel.matmul(a[i:i + 1]))


@pytest.mark.parametrize("n", [n for n in ROW_COUNTS if n > 1])
@pytest.mark.parametrize("mode", sorted(TABLE_MODES))
def test_raw_chunk_is_c_contiguous(mode, n):
    """The gather + sign result keeps rows outermost for N > 1, so the
    reshape to ``[N, M, QG, gpq]`` and the block sum run contiguous."""
    kernel = make_kernel(specialize=True, **TABLE_MODES[mode])
    table = kernel.precompute(activations(n=n))
    spec = kernel.plan.specialized(specialization_key(table, kernel.config))
    flat = table.values.reshape(n, -1)
    groups = kernel.plan.num_groups
    for bit in range(spec.bits):
        raw = spec._raw(flat, bit, 0, groups, 0, spec.out_features)
        assert raw.shape == (n, spec.out_features, groups)
        assert raw.flags.c_contiguous


# --------------------------------------------------------------------- #
# Key normalization
# --------------------------------------------------------------------- #


def test_irrelevant_flags_do_not_fork_kernels():
    kernel = make_kernel(table_quantization=False, specialize=True)
    table = kernel.precompute(activations())
    base = specialization_key(table, kernel.config)
    # fast_aggregation only matters for group-granularity quantized tables;
    # on an unquantized table it must not fork a second compiled kernel.
    # (The config check forbids it there, so build the flag set directly.)
    forked = specialization_key(
        table, SimpleNamespace(fast_aggregation=True))
    assert base == forked
    assert not base.fast_aggregation
    assert not base.int_domain  # int8 needs quantized group tables


def test_int8_key_requires_group_granularity():
    fine = make_kernel(lut_scale_granularity="fine", specialize=True)
    table = fine.precompute(activations())
    assert not specialization_key(table, fine.config).int_domain
    fast = make_kernel(fast_aggregation=True, specialize=True)
    table = fast.precompute(activations())
    assert not specialization_key(table, fast.config).int_domain
    group = make_kernel(specialize=True)
    table = group.precompute(activations())
    assert specialization_key(table, group.config).int_domain


# --------------------------------------------------------------------- #
# Cache: single-flight builds, reuse, stats
# --------------------------------------------------------------------- #


class CountingCompiler:
    """Wraps compile_specialized, counting builds and holding the first
    one in flight long enough for every racing thread to arrive."""

    def __init__(self, delay=0.02):
        self.calls = 0
        self.lock = threading.Lock()
        self.delay = delay

    def __call__(self, plan, key, tables=None):
        with self.lock:
            self.calls += 1
        if self.delay:
            time.sleep(self.delay)
        return compile_specialized(plan, key, tables)


def test_concurrent_dispatch_compiles_exactly_once(monkeypatch):
    compiler = CountingCompiler()
    monkeypatch.setattr(spec_mod, "compile_specialized", compiler)
    kernel = make_kernel(specialize=True)
    table = kernel.precompute(activations())
    key = specialization_key(table, kernel.config)

    pool = get_worker_pool(HAMMER_THREADS)
    start = threading.Barrier(HAMMER_THREADS)

    def hammer():
        start.wait()
        return kernel.plan.specialized(key)

    futures = [pool.submit(hammer) for _ in range(HAMMER_THREADS)]
    wait(futures)
    kernels = [future.result() for future in futures]

    assert compiler.calls == 1
    assert all(built is kernels[0] for built in kernels)
    assert isinstance(kernels[0], SpecializedKernel)


def test_concurrent_matmul_through_thread_pool_compiles_once(monkeypatch):
    """End to end: racing matmuls on a cold plan share one compile."""
    compiler = CountingCompiler()
    monkeypatch.setattr(spec_mod, "compile_specialized", compiler)
    kernel = make_kernel(specialize=True)
    a = activations()
    expected = make_kernel(specialize=False).matmul(a)

    pool = get_worker_pool(HAMMER_THREADS)
    start = threading.Barrier(HAMMER_THREADS)

    def hammer():
        start.wait()
        return kernel.matmul(a)

    futures = [pool.submit(hammer) for _ in range(HAMMER_THREADS)]
    wait(futures)
    for future in futures:
        np.testing.assert_array_equal(future.result(), expected)
    assert compiler.calls == 1


def test_distinct_keys_compile_distinct_kernels(monkeypatch):
    compiler = CountingCompiler(delay=0)
    monkeypatch.setattr(spec_mod, "compile_specialized", compiler)
    kernel = make_kernel(specialize=True)
    table = kernel.precompute(activations())
    exact = specialization_key(table, kernel.config)
    fast = specialization_key(
        table, kernel.config.with_options(fast_aggregation=True))
    assert exact != fast
    first = kernel.plan.specialized(exact)
    second = kernel.plan.specialized(fast)
    third = kernel.plan.specialized(exact)  # cache hit, no recompile
    assert compiler.calls == 2
    assert first is third and first is not second


def test_specialize_stats_counters():
    reset_specialize_stats()
    kernel = make_kernel(specialize=True)
    a = activations()
    kernel.matmul(a)
    kernel.matmul(a)
    stats = specialize_stats()
    assert stats["specialize_builds"] == 1  # second call reuses the cache
    assert stats["specialize_calls"] >= 2
    assert stats["specialize_int8_calls"] >= 2
    assert stats["specialize_generic_calls"] == 0

    reset_specialize_stats()
    generic = make_kernel(specialize=False)
    generic.matmul(a)
    stats = specialize_stats()
    assert stats["specialize_builds"] == 0
    assert stats["specialize_calls"] == 0
    assert stats["specialize_generic_calls"] >= 1


def test_maybe_specialized_gates():
    kernel = make_kernel(specialize=True)
    table = kernel.precompute(activations())
    assert maybe_specialized(kernel.plan, table, kernel.config) is not None
    disabled = kernel.config.with_options(specialize=False)
    assert maybe_specialized(kernel.plan, table, disabled) is None
    # Plan-shaped objects without a cache (e.g. raw mocks) fall back.
    assert maybe_specialized(object(), table, kernel.config) is None


# --------------------------------------------------------------------- #
# Lifetime: eviction releases compiled kernels
# --------------------------------------------------------------------- #


def _plan_with_specialized(cache, seed):
    qw = quantize_weights(gaussian_weights(64, 128, seed=seed), bits=4,
                          group_size=32)
    config = TMACConfig(bits=4, specialize=True, executor="vectorized")
    plan = cache.get(qw, config)
    kernel = TMACKernel.from_plan(plan, config)
    kernel.matmul(activations())  # populates the plan's _spec_cache
    key = specialization_key(kernel.precompute(activations()), config)
    return plan, plan.specialized(key)


def test_plan_eviction_releases_specialized_kernels():
    """No leaked closures: evicting a plan frees its compiled kernels.

    SpecializedKernel holds plan artifacts only by reference (never the
    plan itself), so the LRU dropping the plan must be enough for the
    whole object graph — closures included — to be collected.
    """
    cache = PlanCache(max_entries=1)
    plan, specialized = _plan_with_specialized(cache, seed=11)
    plan_ref = weakref.ref(plan)
    spec_ref = weakref.ref(specialized)
    assert plan.specialized(specialized.key) is specialized  # cached

    _plan_with_specialized(cache, seed=12)  # LRU-evicts the first plan
    del plan, specialized
    gc.collect()

    assert plan_ref() is None, "evicted plan still referenced"
    assert spec_ref() is None, "specialized kernel leaked past eviction"


def test_cache_clear_releases_specialized_kernels():
    cache = PlanCache()
    plan, specialized = _plan_with_specialized(cache, seed=13)
    plan_ref = weakref.ref(plan)
    spec_ref = weakref.ref(specialized)
    cache.clear()
    del plan, specialized
    gc.collect()
    assert plan_ref() is None
    assert spec_ref() is None


def test_specialized_kernel_does_not_reference_plan():
    """The compiled kernel must never close over the plan object."""
    plan = build_plan(
        quantize_weights(gaussian_weights(64, 128, seed=3), bits=4,
                         group_size=32),
        TMACConfig(bits=4, specialize=True, executor="vectorized"),
    )
    config = TMACConfig(bits=4, specialize=True, executor="vectorized")
    table = plan.precompute(activations(), config)
    kernel = plan.specialized(specialization_key(table, config))
    seen = {id(kernel)}
    frontier = [kernel.__dict__]
    while frontier:
        obj = frontier.pop()
        assert obj is not plan
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, dict):
            frontier.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            frontier.extend(obj)
        elif callable(obj) and getattr(obj, "__closure__", None):
            frontier.extend(cell.cell_contents for cell in obj.__closure__)


# --------------------------------------------------------------------- #
# Executor integration
# --------------------------------------------------------------------- #


def test_vectorized_executor_uses_specialized_kernel(monkeypatch):
    """The generic executor routes spans through the compiled kernel."""
    kernel = make_kernel(specialize=True)
    a = activations()
    table = kernel.precompute(a)
    key = specialization_key(table, kernel.config)
    compiled = kernel.plan.specialized(key)
    calls = []
    original = compiled.recombine_span

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(compiled, "recombine_span", spy)
    executor = get_executor("vectorized")
    executor.matmul_with_table(kernel.plan, table, kernel.config, a)
    assert calls, "vectorized executor bypassed the specialized kernel"
