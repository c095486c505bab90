"""Record the benchmark's baseline: repeated runs of every workload.

For each workload this runs ``run.py`` once per seed with tracing off and
once with tracing on, each in a fresh process, and writes
``baseline.json``: every end-to-end metric's median, quartiles and
spread (quartile distance over the median, as the acceptance check
computes it), the traced per-layer breakdown, and each workload's reason
to exist.  Run from the root of the checkout::

    python3 perfbench/record_baseline.py --seeds 1-10 [--workloads a,b]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402

#: The split each MOT workload exists to show, as (layers, claim).
SPLITS = {
    "mot_screen": (("faults.inject_s", "sim.conv_s"),
                   "faults.inject + sim.conv are most of the self time"),
    "mot_hard": (("mot.procedure_s", "mot.condition_s", "mot.backward_s",
                  "mot.expansion_s", "mot.resim_s", "mot.fallback_s"),
                 "mot.* is most of the self time"),
}


def run(workload, seed, seconds, trace):
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    out = subprocess.run(
        command, cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def seeds_arg(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--workloads", default="")
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    args = parser.parse_args()
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = config["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [
        w["name"] for w in config["workloads"]
    ]
    specs = bench.load_workloads()
    record = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for name in names:
        runs = [run(name, seed, seconds, 0) for seed in args.seeds]
        traced = run(name, args.seeds[0], seconds, 1)
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        entry = {
            "why": specs[name]["why"],
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "end_to_end": {
                metric: summary([r["metrics"][metric]["value"] for r in runs])
                for metric in bounds
            },
            "traced": layers,
        }
        if name in SPLITS:
            parts, claim = SPLITS[name]
            self_total = layers["trace.wall_s"] - layers["unattributed_s"]
            share = sum(layers[p] for p in parts) / self_total
            entry["split"] = {"claim": claim, "share": share,
                              "holds": share > 0.5}
        record["workloads"][name] = entry
        print(f"{name}: correct={entry['correct']}", file=sys.stderr)
        for metric, stats in entry["end_to_end"].items():
            flag = "" if stats["spread"] < bounds[metric] / 3 else "  WIDE"
            print(f"  {metric:16s} median {stats['median']:12.4f} "
                  f"spread {stats['spread']:.3f}{flag}", file=sys.stderr)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
