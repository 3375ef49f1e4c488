"""Run every workload over several seeds and summarize the runs as JSON.

    python3 benchmark/baseline.py --out benchmark/baseline.json

For each workload it runs ``run.py --trace 0`` once per seed 1-10, one run
at a time and each as long as BENCHMARK.json's ``run_seconds``, and
records each end-to-end metric's median, quartiles and spread (the
quartile distance as a share of the median, as statistics.quantiles gives
it), then one ``--trace 1`` run on seed 1 for the per-layer table and the
tracing overhead.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SEEDS = list(range(1, 11))
RUN_SECONDS = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def one_run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect run\n{proc.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "runs": values}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    report = {"commit": run.git_commit(), "seeds": SEEDS, "run_seconds": RUN_SECONDS,
              "workloads": {}}
    for workload in workloads.WORKLOADS:
        runs = [one_run(workload, seed, RUN_SECONDS, 0) for seed in SEEDS]
        end_to_end = {key: summarize([r[key] for r in runs]) for key in runs[0]}
        for key, s in end_to_end.items():
            print(f"{workload:8s} {key:16s} median={s['median']:.6g} spread={s['spread']:.3f}",
                  flush=True)
        layers = one_run(workload, SEEDS[0], RUN_SECONDS, 1)
        report["workloads"][workload] = {"end_to_end": end_to_end, "per_layer": layers}
    text = json.dumps(report, indent=1)
    if args.out:
        args.out.write_text(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
