"""Run one workload phase in this fresh process and print a JSON summary.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S [--traced]
    python3 perfbench/worker.py --selftest

One closed-loop client: each op starts after the previous one returned, with
no threads and at most one child process at a time.  Inputs are drawn in
blocks outside the timed region; each block is timed as a whole and op by
op, then its answers are checked, also outside the timed region.  Before the
loop, the workload's checker is fed deliberately wrong answers and must
reject every one (the self-test).
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from tracer import Tracer, merge  # noqa: E402

OP_TIMEOUT_NS = 10 * 10**9  # an in-process op slower than this counts as failed
# The host's CPU speed drifts by +-15% over seconds (shared cores), and the
# drift moves most pure-Python work roughly alike.  A fixed calibration loop
# timed after each block measures it; CALIBRATION_REF_NS is that loop's time
# on the reference machine (2-vCPU x86-64 VM, CPython 3.11), so
# reference-speed figures read close to raw ones there.
CALIBRATION_LOOPS = 20_000
CALIBRATION_REF_NS = 6_500_000
SMOOTHING = 4


def selftest(workload, seed: int) -> list[str]:
    """The deliberately wrong answers that the checker let through."""
    missed = []
    for item, answer in workload.wrong_answers(random.Random(seed)):
        try:
            accepted = workload.check(item, answer)
        except Exception:
            accepted = False
        if accepted:
            missed.append(f"{workload.name}: {answer!r} accepted for {item!r}")
    return missed


def calibrate() -> int:
    """Nanoseconds of a fixed pure-Python loop."""
    start = time.perf_counter_ns()
    table = {}
    for i in range(CALIBRATION_LOOPS):
        table[i & 255] = (i * 7919) % 1013 + len(str(i))
    return time.perf_counter_ns() - start


def closed_loop(workload, seed: int, seconds: float) -> dict:
    """Run ops for ``seconds`` of timed work and at least ``workload.min_ops``."""
    source = workload.inputs(random.Random(seed))
    clock = time.perf_counter_ns
    budget = int(seconds * 1e9)
    latencies = array("q")  # compact, so it hardly moves peak_rss_mb
    block_ns: list[int] = []
    calibrations = [calibrate()]
    timed = attempted = failed = 0
    while timed < budget or attempted < workload.min_ops:
        items = [next(source) for _ in range(workload.block)]
        answers = []
        run = workload.run
        start = clock()
        for item in items:
            t0 = clock()
            try:
                answer = run(item)
            except Exception as exc:  # any raise is a failed op, counted below
                answer = exc
            t1 = clock()
            latencies.append(t1 - t0)
            answers.append(answer)
        elapsed = clock() - start
        calibrations.append(calibrate())
        timed += elapsed
        block_ns.append(elapsed)
        for item, answer, ns in zip(items, answers, latencies[-len(items):]):
            attempted += 1
            try:
                ok = not isinstance(answer, Exception) and ns <= OP_TIMEOUT_NS
                ok = ok and workload.check(item, answer)
            except Exception:
                ok = False
            failed += not ok
    failed += workload.finish(attempted)
    return {
        "attempted": attempted,
        "failed": failed,
        "timed_s": timed / 1e9,
        "block": workload.block,
        "latencies_ns": latencies,
        "block_ns": block_ns,
        "calibrations_ns": calibrations,
    }


def speed_factors(calibrations: list[int], blocks: int) -> list[float]:
    """Speed factor of each block: the median of the calibrations taken
    within SMOOTHING blocks of it, over CALIBRATION_REF_NS.  The window
    follows drift over seconds while damping the noise of single tries."""
    factors = []
    for b in range(blocks):
        window = calibrations[max(0, b - SMOOTHING): b + SMOOTHING + 2]
        factors.append(statistics.median(window) / CALIBRATION_REF_NS)
    return factors


def summarize(loop: dict, tail: int) -> dict:
    """Figures of one phase.

    Throughput and the median latency are also given at reference speed,
    with each op's time divided by its block's speed factor.  The tail stays
    raw: on the tuning host the heaviest ops did not follow the calibration
    loop, and scaling them widened the run-to-run spread of the tail.
    """
    size, block_ns, raw = loop["block"], loop["block_ns"], loop["latencies_ns"]
    factors = speed_factors(loop["calibrations_ns"], len(block_ns))
    scaled = [ns / factors[i // size] for i, ns in enumerate(raw)]
    cuts = statistics.quantiles(raw, n=100, method="inclusive")
    rates = [size * 1e9 / ns for ns in block_ns]
    return {
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        "timed_s": loop["timed_s"],
        "samples": len(raw),
        "blocks": len(block_ns),
        "speed_factor": statistics.median(factors),
        "op_ns_total": sum(raw),
        "throughput_ops_s": statistics.median(r * f for r, f in zip(rates, factors)),
        "raw_throughput_ops_s": statistics.median(rates),
        "latency_p50_ms": statistics.median(scaled) / 1e6,
        "raw_latency_p50_ms": statistics.median(raw) / 1e6,
        "tail_percentile": tail,
        "latency_tail_ms": cuts[tail - 1] / 1e6,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--selftest", action="store_true", help="self-test every checker")
    args = parser.parse_args(argv)

    if args.selftest:
        missed = [m for cls in workloads.WORKLOADS.values() for m in selftest(cls(), args.seed)]
        for line in missed:
            print(f"checker self-test failed: {line}", file=sys.stderr)
        print("checker self-test:", "FAIL" if missed else "ok")
        return 1 if missed else 0
    if args.workload is None:
        parser.error("--workload is required")

    cls = workloads.WORKLOADS[args.workload]
    workload = cls(traced=True) if args.traced and cls is workloads.CliOneshot else cls()
    missed = selftest(workload, args.seed)
    for line in missed:
        print(f"checker self-test failed: {line}", file=sys.stderr)
    tracer = None
    if args.traced:
        tracer = Tracer()
        tracer.install()
    # Move the benchmark's own set-up objects out of the collector's way, so
    # that full collections during the loop cost what the program makes.
    gc.collect()
    gc.freeze()
    loop = closed_loop(workload, args.seed, args.seconds)

    who = resource.RUSAGE_CHILDREN if cls is workloads.CliOneshot else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB
    out = summarize(loop, 90 if cls is workloads.CliOneshot else 99)
    out["peak_rss_mb"] = peak_rss_mb
    out["selftest_ok"] = not missed
    if tracer is not None:
        trace = tracer.snapshot()
        main_ns = []
        for child in getattr(workload, "child_traces", []):
            merge(trace, child["trace"])
            main_ns.append(child["main_ns"])
        out["trace"] = trace
        out["cli_main_ns"] = main_ns
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
