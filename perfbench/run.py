"""End-to-end and per-layer benchmark of the planegroups package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere; it works on the checkout that holds this file, with
``src/`` put on the import path (nothing is installed or built).  With
``--trace 0`` it measures the set-up time (fresh interpreters importing the
package) and then runs the workload untraced in a fresh worker process for S
seconds, reporting the end-to-end metrics.  With ``--trace 1`` it runs the
same seed untraced and then traced, S/2 seconds each, times interpreter
start and imports, and reports the per-layer metrics and the tracing
overhead.  Every answer is checked outside the timed region.  The last line
of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
The metric names, units and workloads are declared in ``BENCHMARK.json``;
``perfbench/README.md`` explains them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEADLINE_S = 170  # the whole run, set-up included, ends before this
SETUP_REPEATS = 7
STARTUP_REPEATS = 5

SPANS = (
    "elements.mul",
    "elements.construct",
    "elements.inverse",
    "elements.pow",
    "elements.order",
    "elements.format",
    "words.parse_word",
    "words.evaluate_word",
    "centralizers.centralizer",
    "centralizers.contains",
    "centralizers.cyclic_exponent",
    "centralizers.commutes",
    "classify.signature",
    "classify.euler_factor",
    "classify.classify",
    "oracle.verify_centralizer",
)
PER_CALL = (
    "elements.mul",
    "elements.pow",
    "words.parse_word",
    "centralizers.centralizer",
    "centralizers.contains",
    "classify.classify",
)
LAYERS = ("elements", "words", "centralizers", "classify", "oracle", "cli")
IMPORTED = ("package", "elements", "centralizers", "classify", "oracle", "words", "cli")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric, in report order, with its unit."""
    units = {}
    for span in SPANS:
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_ms"] = "ms"
    units.update(
        {
            "elements.pow.mul_per_call": "count",
            "words.parse_word.letters": "count",
            "words.parse_word.errors": "count",
            "centralizers.contains.true_frac": "share",
            "oracle.verify_centralizer.witnesses": "count",
            "oracle.ball.elements": "count",
            "oracle.ball.self_ms": "ms",
            "cli.interpreter_ms": "ms",
            "cli.import_ms": "ms",
        }
    )
    for module in IMPORTED:
        units[f"cli.import.{module}_ms"] = "ms"
    units["cli.import.stdlib_ms"] = "ms"
    units["cli.main_ms"] = "ms"
    for layer in LAYERS:
        units[f"{layer}.self_share"] = "share"
    units["cli.interpreter.self_share"] = "share"
    units["cli.import.self_share"] = "share"
    units["bench.self_share"] = "share"
    units["elements.pow.incl_share"] = "share"
    for span in PER_CALL:
        units[f"{span}.traced_us_per_call"] = "us"
    units["trace.untraced_throughput_ops_s"] = "1/s"
    units["trace.traced_throughput_ops_s"] = "1/s"
    units["trace.overhead_x"] = "ratio"
    return units


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    return env


def _timed(cmd: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, timeout=60)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"{cmd} failed: {done.stderr.decode(errors='replace')}")
    return elapsed, done


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing the package, after
    one warm-up import that leaves the bytecode cache filled."""
    cmd = [sys.executable, "-c", "import planegroups"]
    _timed(cmd)
    return statistics.median(_timed(cmd)[0] for _ in range(SETUP_REPEATS))


def measure_startup() -> dict[str, float]:
    """Interpreter start (``-c pass``) and the ``-X importtime`` profile of
    ``import planegroups.cli``, each the median of several fresh processes."""
    bare = [sys.executable, "-c", "pass"]
    _timed(bare)
    samples: dict[str, list[float]] = {"cli.interpreter_ms": []}
    for _ in range(STARTUP_REPEATS):
        samples["cli.interpreter_ms"].append(_timed(bare)[0] * 1e3)
    for _ in range(STARTUP_REPEATS):
        _, done = _timed([sys.executable, "-X", "importtime", "-c", "import planegroups.cli"])
        selfs, total = {}, None
        for line in done.stderr.decode().splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            own, cumulative, name = line[len("import time:"):].split("|")
            if not own.strip().isdigit():
                continue  # the column header
            name = name.strip()
            if name == "planegroups.cli":
                total = int(cumulative) / 1e3
            if name == "planegroups" or name.startswith("planegroups."):
                key = "package" if name == "planegroups" else name.split(".")[1]
                selfs[key] = int(own) / 1e3
        if total is None:
            raise RuntimeError("no planegroups.cli entry in the -X importtime profile")
        samples.setdefault("cli.import_ms", []).append(total)
        for module in IMPORTED:
            samples.setdefault(f"cli.import.{module}_ms", []).append(selfs.get(module, 0.0))
        samples.setdefault("cli.import.stdlib_ms", []).append(total - sum(selfs.values()))
    return {key: statistics.median(values) for key, values in samples.items()}


def run_worker(args, seconds: float, traced: bool, deadline: float) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(seconds),
    ]
    if traced:
        cmd.append("--traced")
    done = subprocess.run(
        cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with status {done.returncode}")
    return json.loads(done.stdout.decode().splitlines()[-1])


def git_revision() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref[:12]
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()[:12]
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0][:12]
    return f"unresolved {name}"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "planegroups").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:12]


def print_header(args) -> None:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    print(
        f"# planegroups benchmark | python {platform.python_version()}"
        f" ({platform.python_implementation()}) | git {git_revision()}"
        f" | src sha256 {source_digest()} | nproc {os.cpu_count()}"
    )
    print(
        f"# workload {args.workload} | seed {args.seed} | seconds {args.seconds}"
        f" | trace {args.trace} | closed loop, one client, one op at a time"
    )
    for name, cls in workloads.WORKLOADS.items():
        print(f"# input size {name}: {cls.size()}")


def end_to_end(args, deadline: float) -> tuple[dict, dict]:
    setup_s = measure_setup()
    res = run_worker(args, args.seconds, False, deadline)
    n, tail = res["samples"], res["tail_percentile"]
    beyond = n - (n * tail + 99) // 100
    print(f"setup_s = {setup_s:.6f} s (median of {SETUP_REPEATS} fresh `import planegroups`)")
    print(
        f"# speed factor {res['speed_factor']:.4f} (calibration loop time / reference);"
        " throughput and p50 are at reference speed, raw wall-clock figures in brackets"
    )
    print(
        f"throughput_ops_s = {res['throughput_ops_s']:.4f} 1/s [raw {res['raw_throughput_ops_s']:.4f}]"
        f" (median of {res['blocks']} blocks; {res['attempted']} ops in {res['timed_s']:.3f} s timed)"
    )
    print(
        f"latency_p50_ms = {res['latency_p50_ms']:.6f} ms [raw {res['raw_latency_p50_ms']:.6f}]"
        f" (n={n})"
    )
    print(
        f"latency_p{tail}_ms = {res['latency_tail_ms']:.6f} ms raw"
        f" (n={n}, {beyond} beyond; reported as latency_tail_ms)"
    )
    print(f"error_rate = {res['failed'] / res['attempted']:.6f} ({res['failed']} of {res['attempted']})")
    print(f"peak_rss_mb = {res['peak_rss_mb']:.3f} MB")
    metrics = {
        "throughput_ops_s": (res["throughput_ops_s"], "1/s"),
        "latency_p50_ms": (res["latency_p50_ms"], "ms"),
        "latency_tail_ms": (res["latency_tail_ms"], "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "setup_s": (setup_s, "s"),
    }
    return metrics, res


def per_layer(args, deadline: float) -> tuple[dict, list]:
    plain = run_worker(args, args.seconds / 2, False, deadline)
    traced = run_worker(args, args.seconds / 2, True, deadline)
    startup = measure_startup()
    trace = traced["trace"]
    calls, self_ns = trace.get("calls", {}), trace.get("self_ns", {})
    incl_ns, counts = trace.get("incl_ns", {}), trace.get("counts", {})
    total_ns = traced["op_ns_total"]
    ops = traced["attempted"]
    values: dict[str, float] = {}
    for span in SPANS:
        values[f"{span}.calls"] = calls.get(span, 0)
        values[f"{span}.self_ms"] = self_ns.get(span, 0) / 1e6
    pow_calls = calls.get("elements.pow", 0)
    contains_calls = calls.get("centralizers.contains", 0)
    values.update(
        {
            "elements.pow.mul_per_call": counts.get("elements.pow.muls", 0) / pow_calls if pow_calls else 0,
            "words.parse_word.letters": counts.get("words.parse_word.letters", 0),
            "words.parse_word.errors": counts.get("words.parse_word.errors", 0),
            "centralizers.contains.true_frac": (
                counts.get("centralizers.contains.true", 0) / contains_calls if contains_calls else 0
            ),
            "oracle.verify_centralizer.witnesses": counts.get("oracle.verify_centralizer.witnesses", 0),
            "oracle.ball.elements": counts.get("oracle.ball.elements", 0),
            "oracle.ball.self_ms": self_ns.get("oracle.ball", 0) / 1e6,
        }
    )
    values.update(startup)
    main_ns = traced["cli_main_ns"]
    values["cli.main_ms"] = statistics.median(main_ns) / 1e6 if main_ns else 0
    # Shares of the traced op time.  In cli-oneshot every op also pays one
    # interpreter start and one package import, measured above.
    in_child = args.workload == "cli-oneshot"
    interpreter_ns = ops * startup["cli.interpreter_ms"] * 1e6 if in_child else 0
    import_ns = ops * startup["cli.import_ms"] * 1e6 if in_child else 0
    accounted = interpreter_ns + import_ns
    for layer in LAYERS:
        layer_ns = sum(v for k, v in self_ns.items() if k.split(".")[0] == layer)
        values[f"{layer}.self_share"] = layer_ns / total_ns
        accounted += layer_ns
    values["cli.interpreter.self_share"] = interpreter_ns / total_ns
    values["cli.import.self_share"] = import_ns / total_ns
    values["bench.self_share"] = 1 - accounted / total_ns
    values["elements.pow.incl_share"] = incl_ns.get("elements.pow", 0) / total_ns
    for span in PER_CALL:
        n = calls.get(span, 0)
        values[f"{span}.traced_us_per_call"] = self_ns.get(span, 0) / n / 1e3 if n else 0
    values["trace.untraced_throughput_ops_s"] = plain["throughput_ops_s"]
    values["trace.traced_throughput_ops_s"] = traced["throughput_ops_s"]
    values["trace.overhead_x"] = plain["throughput_ops_s"] / traced["throughput_ops_s"]
    units = per_layer_units()
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    print(
        f"# traced phase: {ops} ops, {total_ns / 1e9:.3f} s of op time;"
        f" untraced phase: {plain['attempted']} ops"
    )
    return {name: (values[name], unit) for name, unit in units.items()}, [plain, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("oracle-sweep", "query-mix", "classify-enum", "cli-oneshot"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    missing = [
        p for p in (SRC / "planegroups" / "__init__.py", ROOT / "tests" / "golden_cases.py")
        if not p.is_file()
    ]
    if missing:
        print(f"error: not a planegroups checkout, missing {missing[0]}", file=sys.stderr)
        return 2

    print_header(args)
    try:
        if args.trace:
            metrics, phases = per_layer(args, deadline)
        else:
            metrics, res = end_to_end(args, deadline)
            phases = [res]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    correct = failed == 0 and all(p["selftest_ok"] for p in phases)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
