"""Benchmark of schedule generation, the orbit fallbacks, the byte
simulator and the command-line interface of ``cachecode``.

    python3 perfbench/run.py --workload grid24 --seed 1 --seconds 15 --trace 0

Runs from the root of a source checkout, importing the package from
``src/`` (nothing needs installing).  A run repeats the workload's fixed
list of operations in whole rounds until ``--seconds`` have passed (at
least one round), checks every output, and prints one JSON object as the
last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` they are the per-layer ones from a traced run, whose spans
are written to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7


def _import_package() -> None:
    """Put the checkout's src/ first on the path, or exit without a result."""
    if not (SRC / "cachecode" / "__init__.py").is_file():
        sys.exit(
            f"perfbench: no package at {SRC / 'cachecode'}; "
            "run from a source checkout"
        )
    sys.path.insert(0, str(SRC))
    import cachecode

    if Path(cachecode.__file__).resolve().parent != SRC / "cachecode":
        sys.exit(
            f"perfbench: imported cachecode from {cachecode.__file__}, "
            f"not from {SRC}"
        )


def _setup_probe(workload: str, seed: int) -> None:
    """Child side of the set-up measurement: set up, then print the clock."""
    _import_package()
    import workloads
    from spans import NullTracer

    workloads.WORKLOADS[workload](seed, NullTracer())
    print(monotonic())


def setup_seconds(workload: str, seed: int) -> float:
    """Median, over fresh interpreters, of process start to end of set-up.

    For ``cli`` the set-up is importing ``cachecode.cli``; for the others it
    is the workload's own set-up (imports, inputs, and for ``simulate`` the
    schedules and file stores).
    """
    import workloads

    env = workloads.src_env()
    if workload == "cli":
        code = "import time, cachecode.cli; print(time.monotonic())"
        argv = [sys.executable, "-c", code]
    else:
        argv = [
            sys.executable, str(Path(__file__)),
            "--setup-probe", workload, "--seed", str(seed),
        ]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = monotonic()
        proc = subprocess.run(
            argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
        )
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(proc.stdout.split()[-1]) - start)
    return statistics.median(samples)


def run_rounds(wl, tr, seconds: float) -> list[list[tuple[str, str, float]]]:
    """Whole rounds until ``seconds`` have passed; at least one."""
    rounds = []
    start = perf_counter()
    while not rounds or perf_counter() - start < seconds:
        tr.phase = f"round{len(rounds)}"
        with tr.span("round"):
            rounds.append(wl.run_round(tr))
    return rounds


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def typical_times(rounds) -> list[tuple[str, float]]:
    """(kind, seconds) for each distinct operation of the list: its median
    over all its repeats in the run.

    Repeats absorb the machine's bursts of slowness better than one long
    sample; the percentiles are then over the operations of the list.
    """
    kinds: dict[str, str] = {}
    samples: dict[str, list[float]] = {}
    for ops in rounds:
        for kind, label, seconds in ops:
            kinds[label] = kind
            samples.setdefault(label, []).append(seconds)
    return [(kinds[label], statistics.median(v)) for label, v in samples.items()]


def end_to_end(wl, rounds, setup_s: float) -> dict:
    ops = typical_times(rounds)
    kinds = wl.percentile_kinds
    times = [s for kind, s in ops if kinds is None or kind in kinds]
    who = resource.RUSAGE_CHILDREN if wl.work_in_children else resource.RUSAGE_SELF
    return {
        "setup_s": _metric(setup_s, "s"),
        "wall_s": _metric(sum(s for _, s in ops), "s"),
        "op_p50_ms": _metric(statistics.median(times) * 1e3, "ms"),
        "op_p95_ms": _metric(
            statistics.quantiles(times, n=20, method="inclusive")[18] * 1e3, "ms"
        ),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": _metric(resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }


# Per-layer metric -> (unit, keys summed from the tracer's per-phase totals).
LAYER_METRICS = {
    "model.build_s": ("s", ["model.build_cache_layout", "model.build_demand_list"]),
    "delivery.generate_s": ("s", ["delivery.generate_schedule"]),
    "delivery.generate_sweep_class_s": ("s", ["delivery.generate_schedule[sweep]"]),
    "delivery.generate_fallback_class_s": (
        "s", ["delivery.generate_schedule[fallback]"]
    ),
    "delivery.codewords": ("count", ["delivery.codewords"]),
    "delivery.terms": ("count", ["delivery.terms"]),
    "delivery.pairs_s": ("s", ["delivery.closed_form_pairs"]),
    "verify.check_s": ("s", ["verify.verify_instantaneous_decodability"]),
    "verify.min_pair_s": ("s", ["verify.min_pair_transmissions"]),
    "verify.simulate_s": ("s", ["verify.simulate_end_to_end"]),
    "verify.decoded_bytes": ("bytes", ["verify.decoded_bytes"]),
    "verify.xor_bytes_min": ("bytes", ["verify.xor_bytes_min"]),
    "verify.store_s": ("s", ["verify.random_file_store"]),
    "multiaccess.ccdn_schedule_s": ("s", ["multiaccess.ccdn_schedule"]),
    "multiaccess.user_view_s": ("s", ["multiaccess.ccdn_user_view"]),
    "cli.import_s": ("s", ["cli.import_s"]),
    "cli.main_s": ("s", ["cli.main"]),
    "cli.output_bytes": ("bytes", ["cli.output_bytes"]),
}


def per_layer(tr, traced_rounds, untraced_rounds) -> dict:
    """Set-up and extra phases once, plus the median over traced rounds."""
    totals = tr.totals()
    round_phases = [f"round{r}" for r in range(len(traced_rounds))]
    metrics = {}
    for name, (unit, keys) in LAYER_METRICS.items():
        def total(phase):
            return sum(totals[phase].get(k, 0.0) for k in keys)

        once = total("setup") + total("extra")
        per_round = statistics.median(total(p) for p in round_phases)
        metrics[name] = _metric(once + per_round, unit)
    seconds = metrics["verify.simulate_s"]["value"]
    decoded = metrics["verify.decoded_bytes"]["value"]
    mbps = decoded / seconds / 1e6 if seconds else 0.0
    metrics["verify.simulate_MBps"] = _metric(mbps, "MB/s")
    traced = sum(s for _, s in typical_times(traced_rounds))
    untraced = sum(s for _, s in typical_times(untraced_rounds))
    metrics["trace.wall_s"] = _metric(traced, "s")
    metrics["trace.overhead_s"] = _metric(traced - untraced, "s")
    metrics["trace.spans"] = _metric(len(tr.spans), "count")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["grid24", "beyond24", "simulate", "cli"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_probe:
        _setup_probe(args.setup_probe, args.seed)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    _import_package()
    import workloads
    from spans import NullTracer, Tracer

    make = workloads.WORKLOADS[args.workload]
    if args.trace:
        # Untraced rounds first, then a traced set-up and traced rounds; each
        # half gets half the time, and the difference is the overhead.
        untraced = make(args.seed, NullTracer())
        untraced_rounds = run_rounds(untraced, NullTracer(), args.seconds / 2)
        tr = Tracer()
        wl = make(args.seed, tr)
        rounds = run_rounds(wl, tr, args.seconds / 2)
        tr.phase = "extra"
        wl.traced_extras(tr)
        tr.dump(workloads.OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        metrics = per_layer(tr, rounds, untraced_rounds)
        runs = [untraced, wl]
    else:
        setup_s = setup_seconds(args.workload, args.seed)
        wl = make(args.seed, NullTracer())
        rounds = run_rounds(wl, NullTracer(), args.seconds)
        metrics = end_to_end(wl, rounds, setup_s)
        runs = [wl]

    wl.final_checks()
    problems = [p for w in runs for p in w.problems]
    problems += [f"negative control: {m}" for m in workloads.negative_controls()]
    for p in problems[:20] + [f for w in runs for f in w.failures][:20]:
        print(f"perfbench: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(w.attempted for w in runs),
        "failed": sum(w.failed for w in runs),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
