"""One workload in one fresh interpreter: set up, then serve requests in a closed loop.

Run by ``run.py`` with ``PYTHONPATH`` pointing at ``src`` and at this
directory.  Prints one JSON object on stdout: the monotonic clock reading
when the first request was ready and the host speed factor measured right
after, then (unless ``--probe``) the raw outputs and timings of the
requests.  Checking the outputs against the oracle happens in the parent,
outside this process and its timings.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import sys
import time
from fractions import Fraction

import vanishlab  # noqa: F401  (set-up includes importing the whole package)
from vanishlab import cli

import workloads


def serve(request):
    """Run one request through vanishlab.cli.main; returns (seconds, exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(request["argv"]))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is a failed request, not a crashed benchmark
        code = f"exception: {type(exc).__name__}: {exc}"
    return time.perf_counter() - start, code, out.getvalue()


# Host-speed calibration.  On a shared host the CPU's speed switches
# between states 1.5-2x apart that last from seconds to minutes.  After
# each request the worker runs a fixed stdlib-only Fraction loop for about
# CAL_SHARE of the request's time.  Against CAL_REF_S, the loop's speed
# around a request (its own calibration and the one before it) rescales
# that request's latency, and its mean speed over the run rescales the
# run's total time, to a host on which one slice takes CAL_REF_S.
CAL_SHARE = 0.2
CAL_REF_S = 0.001


def calibrate(seconds):
    """Run whole calibration slices for at least `seconds` (at least one);
    returns (time spent, slices run).

    The garbage collector is off meanwhile, so a collection triggered by
    the last request's leftovers is not timed as host speed."""
    spent, slices = 0.0, 0
    gc.disable()
    try:
        while spent < seconds or not slices:
            start = time.perf_counter()
            acc = Fraction(0)
            for i in range(1, 200):
                acc += Fraction(i % 7 + 1, i % 11 + 1) * Fraction(3, i % 5 + 1)
            spent += time.perf_counter() - start
            slices += 1
    finally:
        gc.enable()
    return spent, slices


def speed_factor(spent, slices):
    """Multiply this host's seconds by this to get reference-host seconds."""
    return CAL_REF_S * slices / spent


class Passes:
    """Latencies and outputs of whole passes over the request list."""

    def __init__(self):
        self.latencies = {}   # request id -> reference-speed seconds of each run
        self.first = {}       # request id -> [exit code, stdout] of its first run
        self.changed = {}     # request id -> runs whose output differed from the first
        self.raw_seconds = 0.0
        self.calibration = [0.0, 0]  # time spent and slices run, whole run
        self._previous = (0.0, 0)

    def run(self, requests):
        for req in requests:
            gc.collect()  # one request's garbage is not charged to the next
            seconds, code, out = serve(req)
            spent, slices = calibrate(CAL_SHARE * seconds)
            factor = speed_factor(spent + self._previous[0], slices + self._previous[1])
            self._previous = (spent, slices)
            self.calibration[0] += spent
            self.calibration[1] += slices
            self.raw_seconds += seconds
            rid = req["id"]
            self.latencies.setdefault(rid, []).append(seconds * factor)
            if rid not in self.first:
                self.first[rid] = [code, out]
            elif self.first[rid] != [code, out]:
                self.changed[rid] = self.changed.get(rid, 0) + 1

    def seconds(self):
        """Time inside cli.main, rescaled by the run's mean calibration speed.

        Calibration runs for a fixed share of each request's time, so its
        mean is weighted like the requests; for a long request this matches
        better than the speed measured just around it."""
        return self.raw_seconds * speed_factor(*self.calibration)

    def result(self):
        return {"latencies_s": self.latencies, "outputs": self.first,
                "changed": self.changed, "raw_seconds": self.raw_seconds,
                "seconds": self.seconds()}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--probe", action="store_true", help="stop once set-up is done")
    args = ap.parse_args(argv)

    cli.build_parser()
    requests = workloads.build(args.workload, args.seed, args.tiny)
    report = {"ready_monotonic": time.monotonic()}
    report["setup_speed_factor"] = speed_factor(*calibrate(0.02))
    if args.probe:
        print(json.dumps(report))
        return 0

    # One untimed warm-up request of each kind: the smallest one.
    smallest = {}
    for req in requests:
        key = (req["kind"], req["spec"].get("which"))
        if key not in smallest or len(str(req["argv"])) < len(str(smallest[key]["argv"])):
            smallest[key] = req
    for req in smallest.values():
        serve(req)

    # Whole passes only, so every run serves the same mix.  A traced run
    # times one pass, the base of its overhead ratio, after an untimed pass
    # that leaves the process as warm as the traced pass will find it.
    if args.trace:
        Passes().run(requests)
    timed = Passes()
    start = time.perf_counter()
    while True:
        timed.run(requests)
        if args.trace or time.perf_counter() - start >= args.seconds:
            break
    report["timed"] = timed.result()
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        traced = Passes()
        traced.run(requests)
        factor = traced.seconds() / traced.raw_seconds
        layers = {key: value * factor if key.endswith(".self_s") else value
                  for key, value in tracer.metrics().items()}
        # median over requests of traced / untraced time: one slow stretch
        # of the host during a long request cannot move it
        layers["trace.overhead"] = statistics.median(
            traced.latencies[rid][0] / timed.latencies[rid][0] for rid in timed.latencies)
        report["traced"] = traced.result()
        report["layers"] = layers
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
