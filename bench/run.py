"""Benchmark entry point: one workload at one seed, every metric by name.

    python3 bench/run.py --workload closure --seed 1 --seconds 25 --trace 0

Run from the repository root; the library is imported from ``src/``.
Every measurement happens in a fresh interpreter (``worker.py``), so each
run starts with borderqsym's family cache empty.  Each op is a
single-caller closed loop: the next op starts when the previous one has
been checked.  There are no threads or pools.

``--trace 0`` prints the end-to-end metrics.  One worker cycles through
the workload for ``--seconds``.  Set-up is timed from spawn to the
``READY`` line of ``SETUP_PROBES`` probe interpreters before that worker
and as many after it, and reported as the median.  Every end-to-end time
is scaled to a reference machine speed measured alongside it (see
``speed.py``); the raw figures are printed beside the metrics.

``--trace 1`` prints the per-layer metrics.  It runs cycle 0 of the
workload twice, in two fresh interpreters: untraced, then with a span
around every library call.  Work counts therefore repeat exactly for a
seed, and the difference in ops per second is the tracing overhead.
Spans are written to ``.bench_out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Any op that raises, times
out or returns a wrong answer makes the run incorrect and the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

import proc
import speed
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SPANS_DIR = ROOT / ".bench_out"
SETUP_PROBES = 4  # probe interpreters before and again after the measuring one
TOTAL_BUDGET_S = 170.0
TAIL_BEYOND = 10  # the tail percentile keeps this many samples above it

PER_LAYER = [
    ("families.build_s", "s"), ("families.build_calls", "count"), ("families.terms_built", "count"),
    ("families.errors", "count"),
    ("core.mul_s", "s"), ("core.mul_pairs", "count"), ("core.mul_terms_out", "count"),
    ("core.relabel_s", "s"), ("core.errors", "count"),
    ("basis.decompose_s", "s"), ("basis.decompose_terms_in", "count"), ("basis.decompose_coeffs_out", "count"),
    ("basis.reconstruct_s", "s"), ("basis.reconstruct_members", "count"),
    ("basis.rational_solve_s", "s"), ("basis.rational_cells", "count"), ("basis.errors", "count"),
    ("oracle.spreading_s", "s"), ("oracle.spreading_slice", "count"), ("oracle.case_rule_s", "s"),
    ("oracle.errors", "count"),
    ("shuffle.k1_product_s", "s"), ("shuffle.shuffles", "count"), ("shuffle.errors", "count"),
    ("cli.process_s.decompose", "s"), ("cli.process_s.multiply", "s"), ("cli.process_s.check-spreading", "s"),
    ("cli.process_s.shuffle-formula", "s"), ("cli.process_s.check-q", "s"),
    ("cli.stdout_bytes", "count"), ("cli.child_rss_mb", "MB"), ("cli.errors", "count"),
    ("bench.op_self_s", "s"), ("bench.errors", "count"),
    ("trace.spans", "count"), ("trace.ops_per_s_delta", "1/s"),
]


class BenchError(Exception):
    pass


def _worker(workload: str, seed: int, seconds: float, mode: str, trace: int, deadline: float,
            spans_out: Path | None = None) -> tuple[proc.Finished, dict | None]:
    argv = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--mode", mode, "--trace", str(trace)]
    if spans_out is not None:
        argv += ["--spans-out", str(spans_out)]
    done = proc.run(argv, deadline - perf_counter(), cwd=ROOT, marker=b"READY\n")
    if done.exit_code != 0 or done.marker_s is None:
        raise BenchError(f"worker exited {done.exit_code}:\n{done.stderr.decode(errors='replace')[-2000:]}")
    if mode == "probe":
        return done, None
    return done, json.loads(done.stdout.decode().splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, float]:
    """The latency with exactly TAIL_BEYOND samples above it, and its percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(args, deadline: float) -> tuple[dict, dict]:
    def probes():
        # A reference pass just before and just after each probe gives the
        # machine's speed while it started.
        raw, scaled = [], []
        for _ in range(SETUP_PROBES):
            before = speed.pass_s()
            took = _worker(args.workload, args.seed, args.seconds, "probe", 0, deadline)[0].marker_s
            after = speed.pass_s()
            raw.append(took)
            scaled.append(took * speed.REF_PASS_S * 2 / (before + after))
        return raw, scaled

    # Probes on both sides of the measured run, so that one slow spell of
    # the machine does not set the median alone.
    raw_setups, setups = probes()
    done, raw = _worker(args.workload, args.seed, args.seconds, "run", 0, deadline)
    more_raw, more = probes()
    raw_setups += more_raw
    setups += more
    lat = raw["latencies"]
    if not lat:
        raise BenchError("no op completed")
    scaled = speed.scale(raw["speed"], raw["starts"], lat)
    verified = raw["attempted"] - raw["failed"]
    tail_s, tail_pct = tail(scaled)
    rss = raw["child_rss_mb"] if args.workload == "cli" else done.maxrss_mb
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (verified / sum(scaled), "1/s"),
        "latency_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
        "latency_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (rss, "MB"),
        "ok_ratio": (verified / raw["attempted"], "ratio"),
    }
    passes = [s for _, s in raw["speed"]]
    notes = {
        "setup_s": f"median of {len(setups)} probes; raw median {statistics.median(raw_setups):.4f} s",
        "ops_per_s": (f"{verified} verified ops in {sum(scaled):.2f} s scaled busy time over {raw['cycles']} "
                      f"cycle(s); raw {verified / sum(lat):.3f} 1/s"),
        "latency_p50_ms": f"raw {statistics.median(lat) * 1e3:.3f} ms",
        "latency_tail_ms": (f"p{tail_pct:.2f} of {len(lat)} op latencies, "
                            f"{TAIL_BEYOND if len(lat) > TAIL_BEYOND else 0} above it; raw {tail(lat)[0] * 1e3:.3f} ms"),
        "peak_rss_mb": "largest per-child ru_maxrss" if args.workload == "cli" else "ru_maxrss of the worker",
        "ok_ratio": (f"fail_ratio = {raw['failed']}/{raw['attempted']}; reference pass "
                     f"{min(passes) * 1e3:.2f} to {max(passes) * 1e3:.2f} ms over {len(passes)} samples"),
    }
    return raw, {"metrics": metrics, "notes": notes}


def per_layer(args, deadline: float) -> tuple[dict, dict]:
    SPANS_DIR.mkdir(exist_ok=True)
    spans_out = SPANS_DIR / f"{args.workload}-seed{args.seed}.jsonl"
    _, plain = _worker(args.workload, args.seed, args.seconds, "cycle", 0, deadline)
    _, traced = _worker(args.workload, args.seed, args.seconds, "cycle", 1, deadline, spans_out)
    layers = traced["layers"]
    layers["cli.child_rss_mb"] = traced["child_rss_mb"]

    def rate(raw):
        return (raw["attempted"] - raw["failed"]) / sum(raw["latencies"]) if raw["latencies"] else 0.0

    layers["trace.ops_per_s_delta"] = rate(traced) - rate(plain)
    metrics = {name: (layers.get(name, 0), unit) for name, unit in PER_LAYER}
    raw = {"attempted": plain["attempted"] + traced["attempted"],
           "failed": plain["failed"] + traced["failed"],
           "failures": plain["failures"] + traced["failures"]}
    notes = {"trace.ops_per_s_delta": f"traced {rate(traced):.3f} minus untraced {rate(plain):.3f} ops/s",
             "trace.spans": f"written to {spans_out.relative_to(ROOT)}"}
    return raw, {"metrics": metrics, "notes": notes}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "borderqsym" / "__init__.py").is_file():
        print(f"error: no borderqsym sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = perf_counter() + TOTAL_BUDGET_S
    try:
        raw, report = (per_layer if args.trace else end_to_end)(args, deadline)
    except (BenchError, TimeoutError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"workload {args.workload}, seed {args.seed}, {'traced cycle 0' if args.trace else f'{args.seconds:g} s'}")
    for name, (value, unit) in report["metrics"].items():
        note = report["notes"].get(name, "")
        print(f"  {name:32s} {value:14.6g} {unit:6s} {note}")
    for failure in raw["failures"]:
        print(f"  FAILED: {failure}")
    correct = raw["failed"] == 0 and raw["attempted"] >= 1
    print(json.dumps({
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in report["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
