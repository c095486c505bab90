"""Record the reference verdicts and digests in ``data/workloads.json``.

Each workload's definition (kind, circuits, sequence lengths, pattern
seeds, why it exists) is written by hand in that file; this
script runs the program on the complete fault population of each one and
stores, per circuit, every fault's ``[fault, status, how]`` as the
reference, plus the verdict digest of every shipped seed's pass.

``select: "survivors"`` keeps only the faults that neither conventional
simulation nor condition (C) settles -- the pinned list of ``mot_hard``.

Rerun it only to declare a deliberate behaviour change::

    python3 perfbench/make_reference.py [workload ...]
"""

from __future__ import annotations

import json
import re
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import bench  # noqa: E402

SHIPPED_SEEDS = range(1, 11)


def reference_rows(spec):
    kind = spec["kind"]
    if kind == "mot":
        rows = []
        for name, (simulator, faults) in bench.setup_mot(spec).items():
            for fault in faults:
                status, how = bench._mot_verdict(simulator, fault)
                rows.append((name, fault.describe(simulator.circuit),
                             status, how))
        if spec.get("select") == "survivors":
            rows = [r for r in rows if r[2] not in bench.SCREEN_STATUSES]
        return rows
    if kind == "fsim":
        built = bench.setup_fsim(spec)
        keys = [
            (name, fault.describe(circuit))
            for name, (circuit, faults, _patterns) in built.items()
            for fault in faults
        ]
        return bench.run_pass(bench.requests_fsim(built, keys, None)).rows
    with tempfile.TemporaryDirectory() as tmpdir:
        prepared = bench.requests_campaign(spec, Path(tmpdir), None)
        try:
            return bench.run_pass(prepared).rows
        finally:
            bench.release(prepared)


def record(spec):
    """Fill *spec*'s ``reference`` and ``digests`` from a program run."""
    rows = reference_rows(spec)
    keys = [row[:2] for row in rows]
    if len(set(keys)) != len(keys):
        raise ValueError("fault labels are not unique")
    if any(row[2] in bench.FAILED_STATUSES for row in rows):
        raise ValueError("the reference run has failed verdicts")
    spec["reference"] = {}
    for circuit, label, status, how in rows:
        spec["reference"].setdefault(circuit, []).append([label, status, how])
    spec["digests"] = {
        str(seed): bench.expected_digest(spec, bench.plan(spec, seed))
        for seed in SHIPPED_SEEDS
    }
    return spec


def main(names):
    workloads = bench.load_workloads()
    for name in names or list(workloads):
        record(workloads[name])
        count = sum(len(rows) for rows in workloads[name]["reference"].values())
        print(f"{name}: {count} faults", file=sys.stderr)
    text = json.dumps(workloads, indent=1)
    # One reference row per line keeps the file readable and diffable.
    text = re.sub(r'\[\n\s+("[^"]*"),\n\s+("[^"]*"),\n\s+("[^"]*")\n\s+\]',
                  r"[\1, \2, \3]", text)
    bench.DATA.write_text(text + "\n", encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
