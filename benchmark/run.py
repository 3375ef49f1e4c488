"""vanishlab benchmark: drive the CLI the way its users do and check every answer.

    python3 benchmark/run.py --workload series --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  Each workload runs in a fresh
interpreter (``worker.py``) with a fixed ``PYTHONHASHSEED``: one client
sends ``vanishlab`` argv lists to ``vanishlab.cli.main`` in a closed loop,
the next request only after the previous one returned, in whole passes
over the seeded request list until ``--seconds`` have passed.  Without
``--workload`` the workloads run one after another.

End-to-end metrics (``--trace 0``):

* ``setup_s``: interpreter start to the first request being ready
  (import vanishlab, build the CLI parser, generate the requests); the
  median over ten fresh interpreters.
* ``verdicts_per_s``: correct answers per second of time inside
  ``cli.main`` (the ``gc.collect()`` between requests is not counted).
* ``latency_p50_ms``, ``latency_p90_ms``: percentiles of the time of each
  request inside ``cli.main``, over every run of every request.
* ``peak_rss_mb``: ``ru_maxrss`` of the workload's process.

Every time is rescaled to a reference host speed with the calibration
loop in ``worker.py`` (latencies by the speed measured around each
request, totals by the run's mean speed), because the CPU speed of a
shared host drifts by up to 2x; the raw time is printed too.  A failure
is an exception, a wrong exit code, a wrong answer or an answer that
changed between runs; ``failed`` counts every run of such a request.

``--trace 1`` serves the request list once untraced and once with spans
around each layer (``tracing.py``), and prints the per-layer metrics and
the tracing overhead.  Every distinct answer is checked by ``oracle.py``
after the worker has exited, so oracle time is never measured.  The last
line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
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
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_PROBES = 9        # extra interpreters that only set up; setup_s is the median
HASH_SEED = "0"
WORKER_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "verdicts_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# Layers that must record calls on a workload, or the traced run fails:
# a wrapper missing from one binding would otherwise pass as "idle".
EXPECTED_LAYERS = {
    "series": ("poly.mul", "poly.pow", "poly.series_mul", "poly.init", "diffops.apply",
               "cases", "cli"),
    "orthant": ("simplex.solve_lp", "polytopes.orthant_meet", "polytopes", "parsing", "cli"),
    "cli-mix": ("poly.mul", "poly.pow", "poly.init", "diffops.apply", "diffops.profile",
                "simplex.solve_lp", "polytopes.orthant_meet", "polytopes", "cases",
                "density", "parsing", "cli"),
}


def layer_unit(name):
    if name.endswith(".self_s"):
        return "s"
    if name.endswith(("_frac", "_per_pair", "_per_query", "overhead")):
        return "ratio"
    return "count"


def git_commit():
    """The checked-out commit, read without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn_worker(args):
    """Run worker.py in a fresh interpreter; returns its report and its set-up seconds
    at the reference host speed."""
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    started = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}):\n{proc.stderr}")
    report = json.loads(proc.stdout.splitlines()[-1])
    return report, (report["ready_monotonic"] - started) * report["setup_speed_factor"]


def log(message):
    print(message, file=sys.stderr)


def grade(requests, served):
    """Check each distinct answer once; returns (attempted, failed, ids of wrong requests)."""
    import oracle  # sympy: loaded only once the program's answers are in

    by_id = {str(req["id"]): req for req in requests}
    attempted = failed = 0
    wrong = set()
    for rid, runs in served["latencies_s"].items():
        code, out = served["outputs"][rid]
        problems = oracle.check(by_id[rid], code, out)
        bad = len(runs) if problems else served["changed"].get(rid, 0)
        if problems:
            log(f"request {rid} {' '.join(by_id[rid]['argv'])}: {'; '.join(problems)}")
        elif bad:
            log(f"request {rid}: output changed between runs")
        if bad:
            wrong.add(rid)
        attempted += len(runs)
        failed += bad
    return attempted, failed, wrong


def run_workload(name, seed, seconds, trace, tiny=False):
    """Run one workload; returns the result object printed as the last line."""
    worker_args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(trace)] + (["--tiny"] if tiny else [])
    setups = [spawn_worker(worker_args + ["--probe"])[1] for _ in range(SETUP_PROBES)]
    report, setup = spawn_worker(worker_args)
    setups.append(setup)

    requests = workloads.build(name, seed, tiny)
    timed = report["timed"]
    attempted, failed, wrong = grade(requests, timed)
    runs = timed["latencies_s"]
    samples_ms = [t * 1000 for rid in runs for t in runs[rid]]
    correct = sum(len(runs[rid]) for rid in runs if rid not in wrong)
    metrics = {
        "setup_s": statistics.median(setups),
        "verdicts_per_s": correct / timed["seconds"],
        "latency_p50_ms": statistics.median(samples_ms),
        "latency_p90_ms": statistics.quantiles(samples_ms, n=10)[-1],
        "peak_rss_mb": report["peak_rss_mb"],
    }
    units = END_TO_END_UNITS
    ok = failed == 0
    if trace:
        traced = report["traced"]
        t_attempted, t_failed, _ = grade(requests, traced)
        differs = [rid for rid, out in traced["outputs"].items() if out != timed["outputs"][rid]]
        if differs:
            log(f"tracing changed the output of requests {differs}")
        metrics = report["layers"]
        units = {key: layer_unit(key) for key in metrics}
        idle = [layer for layer in EXPECTED_LAYERS[name] if metrics[f"{layer}.calls"] == 0]
        if idle:
            log(f"layers expected on {name} recorded no calls: {idle}")
        attempted += t_attempted
        failed += t_failed + len(differs)
        ok = failed == 0 and not idle
    print(f"# workload={name} seed={seed} trace={trace} python={platform.python_version()} "
          f"nproc={os.cpu_count()} commit={git_commit()} hashseed={HASH_SEED}")
    print(f"# requests={len(runs)} timed samples={len(samples_ms)} "
          f"fail_frac={failed / attempted:.6g} ({failed}/{attempted})")
    print(f"# time inside cli.main: {timed['raw_seconds']:.3f} s on this host, "
          f"{timed['seconds']:.3f} s at the reference speed used for every timing here")
    for key, value in metrics.items():
        print(f"{key} = {value:.6g} {units[key]}")
    return {"correct": ok, "attempted": attempted, "failed": failed,
            "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS,
                    help="one workload (default: all, one after another)")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20,
                    help="minimum timed seconds; the loop ends on a whole pass")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="a few small requests per workload, for testing the benchmark")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "vanishlab" / "cli.py").is_file():
        print(f"benchmark: no vanishlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for name in [args.workload] if args.workload else workloads.WORKLOADS:
        result = run_workload(name, args.seed, args.seconds, args.trace, args.tiny)
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
