"""One benchmark process: import borderqsym, build the inputs, run ops.

Started by ``run.py`` in a fresh interpreter, so the library's family
cache is empty when the first op starts.  Prints ``READY`` once the
import and input generation are done (the parent times set-up up to that
line), then runs a single-caller closed loop and prints one JSON object
with the raw results as its last line.

Modes: ``probe`` stops after ``READY``; ``run`` cycles through the
workload until ``--seconds`` have passed, sampling the machine's speed
between ops (see ``speed.py``); ``cycle`` runs cycle 0 exactly once, so
its work counts repeat exactly for a given seed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OP_TIMEOUT_S = 60.0
MAX_FAILURE_NOTES = 5


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout(f"op exceeded {OP_TIMEOUT_S:.0f} s")


def _import_library():
    sys.path.insert(0, str(ROOT / "src"))
    import borderqsym

    if Path(borderqsym.__file__).resolve().parent != ROOT / "src" / "borderqsym":
        raise ImportError(f"borderqsym imported from {borderqsym.__file__}, not from {ROOT / 'src'}")
    return borderqsym


def _timed(fn, *args):
    """Call fn under the per-op alarm; raises OpTimeout when it runs too long."""
    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("probe", "run", "cycle"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", help="file to write the spans to, one JSON object a line")
    args = parser.parse_args()

    import workloads
    from ops import Ops
    from spans import NullTracer, Tracer
    from speed import SpeedLog

    lib = _import_library()
    tracer = Tracer() if args.trace else NullTracer()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    ops = Ops(lib, tracer, ROOT, env)
    first = [ops.prepare(spec) for spec in workloads.cycle(args.workload, args.seed, 0)]
    print("READY", flush=True)
    if args.mode == "probe":
        return 0

    signal.signal(signal.SIGALRM, _on_alarm)
    speed = SpeedLog()
    starts: list[float] = []
    latencies: list[float] = []
    failures: list[str] = []
    layer_errors: dict[str, int] = {}
    attempted = 0
    start = perf_counter()
    cycle_no, batch = 0, first
    while True:
        for op_type, op_args in batch:
            if args.mode == "run" and perf_counter() - start >= args.seconds:
                break
            if args.mode == "run":
                speed.maybe_sample()
            attempted += 1
            problem = None
            t0 = perf_counter()
            try:
                with tracer.span("bench.op", op=attempted, key="bench.op_self_s"):
                    result = _timed(getattr(ops, f"run_{op_type}"), *op_args)
                latencies.append(perf_counter() - t0)
                starts.append(t0)
                problem = _timed(getattr(ops, f"check_{op_type}"), result, *op_args)
            except Exception as exc:  # an op that raises or times out is a failure, never skipped
                problem = ("bench", f"{type(exc).__name__}: {exc}")
            if problem is not None:
                layer, message = problem
                layer_errors[layer] = layer_errors.get(layer, 0) + 1
                if len(failures) < MAX_FAILURE_NOTES:
                    failures.append(f"{op_type} {op_args!r}: {message}")
        else:
            if args.mode == "cycle":
                break
            cycle_no += 1
            batch = [ops.prepare(spec) for spec in workloads.cycle(args.workload, args.seed, cycle_no)]
            continue
        break
    if args.mode == "run":
        speed.sample()

    result = {
        "attempted": attempted,
        "failed": sum(layer_errors.values()),
        "failures": failures,
        "latencies": latencies,
        "starts": starts,
        "speed": speed.samples,
        "cycles": cycle_no + 1,
        "child_rss_mb": ops.child_rss_mb,
    }
    if args.trace:
        layers = tracer.layer_metrics()
        for layer, count in layer_errors.items():
            # An op that raised, in its run or its check, counts once as a bench
            # error (the span that raised has counted one for its own layer too);
            # a wrong answer counts for the layer that gave it.
            key = f"{layer}.errors"
            layers[key] = count if layer == "bench" else layers.get(key, 0) + count
        layers["trace.spans"] = len(tracer.spans)
        result["layers"] = layers
        if args.spans_out:
            tracer.write(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
