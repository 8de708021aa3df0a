"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload decode_single --seed 1 --seconds 20 --trace 0

Set-up is timed in fresh interpreters: ``SETUPS - 1`` set-up-only worker
processes run first, then the measuring worker, and ``setup_s`` is the
median of the five.  With ``--trace 0`` the last line of standard output
is a JSON object holding every ``end_to_end`` metric of ``BENCHMARK.json``;
with ``--trace 1`` it holds every ``per_layer`` metric.  Lines before it
report the same numbers for a reader, with the tail percentiles, request
counts and the host fingerprint.

``REPRO_*`` variables change the library's defaults (``REPRO_EXECUTOR``,
``REPRO_AUTOTUNE``, ...), so they are removed from the workers'
environment and listed in the report: the benchmark always measures the
library as shipped.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spec import WORKLOADS  # noqa: E402
from stats import median  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
#: Set-up samples per run; ``setup_s`` is their median.
SETUPS = 5
#: Wall-time budget of one run, all worker processes together.
RUN_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    pass


def worker_env() -> Tuple[Dict[str, str], List[str]]:
    """The environment for workers, without ``REPRO_*`` overrides.

    ``PYTHONPATH`` goes too, so the workers import the library from this
    checkout's ``src/`` and from nowhere else.
    """
    dropped = sorted(k for k in os.environ
                     if k.startswith("REPRO_") or k == "PYTHONPATH")
    env = {k: v for k, v in os.environ.items() if k not in dropped}
    return env, dropped


def run_worker(argv: List[str], env: Dict[str, str], deadline: float
               ) -> Tuple[float, Dict]:
    """Run one worker; return (seconds until READY, its JSON result).

    The worker is killed when the run's ``deadline`` passes.
    """
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER] + argv, cwd=ROOT,
                            env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - start, 0.0), proc.kill)
    timer.start()
    ready: Optional[float] = None
    last = ""
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - start
            elif line.strip():
                last = line
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or ready is None:
        raise BenchError(f"worker {' '.join(argv)} exited with code "
                         f"{proc.returncode}")
    return ready, json.loads(last)


def _git_sha() -> str:
    """The checked-out commit, or ``unknown`` outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def _src_digest() -> str:
    """Content hash of the library sources (the checkout may lack git)."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:12]


def fingerprint() -> Dict[str, object]:
    """Host and code identity stamped on every result.

    Results with different ``host`` ids are never compared.
    """
    import numpy

    host = {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    host_id = hashlib.sha256(
        json.dumps(host, sort_keys=True).encode()).hexdigest()[:12]
    return dict(host, host=host_id, git_sha=_git_sha(),
                src_digest=_src_digest())


def load_benchmark() -> Dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _fmt(value) -> str:
    if value is None:
        return "unsupported"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    benchmark = load_benchmark()
    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    env, dropped = worker_env()
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    setups = [run_worker(common + ["--setup-only"], env, deadline)
              for _ in range(SETUPS - 1)]
    ready_s, result = run_worker(common + ["--trace", str(args.trace)], env,
                                 deadline)
    setups.append((ready_s, result))

    info = fingerprint()
    print(f"# host {info['host']}: {info['cores']} cores "
          f"({info['usable_cores']} usable), {info['machine']}, "
          f"{info['system']}, python {info['python']}, "
          f"numpy {info['numpy']}")
    print(f"# code git {info['git_sha']}, src {info['src_digest']}")
    print(f"# removed from the workers' environment: "
          f"{', '.join(dropped) if dropped else 'none'}")
    print(f"# workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")

    values: Dict[str, float] = {
        "setup_s": median([ready for ready, _ in setups]),
    }
    for part in ("model_s", "server_s", "warmup_s"):
        values[f"setup.{part}"] = median([r["setup"][part]
                                          for _, r in setups])
    phases = result["phases"]
    for index, phase in enumerate(phases):
        label = "traced" if args.trace and index else "untraced"
        print(f"# phase {index} ({label}): " + ", ".join(
            f"{k}={_fmt(v)}" for k, v in phase.items()))
    oracle = result["oracle"]
    print(f"# oracle: {oracle['checked']} requests replayed through the "
          f"loop executor: {oracle['exact']} exact, {oracle['near_ties']} "
          f"diverged at a near tie, {oracle['mismatched']} mismatched")
    attempted = sum(p["sent"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    print(f"# requests: sent {attempted}, succeeded {attempted - failed}, "
          f"failed {failed}, fail_rate {failed / max(attempted, 1):.4g}")

    first = phases[0]
    for key in ("tok_s", "ttft_p50_ms"):
        values[key] = first[key] if first[key] is not None else 0.0
    values["peak_rss_mb"] = result["peak_rss_mb"]
    if args.trace:
        values.update(result["per_layer"])
        print("# weight bytes behind core.weight_mb_per_token and the "
              "lookups behind core.lookups_per_s are computed from the "
              "packed plan sizes and shapes, not measured")

    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for metric in benchmark[kind]:
        name = metric["name"]
        if name not in values:
            raise BenchError(f"metric {name} was not measured")
        metrics[name] = {"value": values[name], "unit": metric["unit"]}
        print(f"{name} = {values[name]:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        sys.exit(1)
