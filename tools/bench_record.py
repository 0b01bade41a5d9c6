"""Fold paired perfbench runs into one BENCH_<n>.json benchmark record.

Usage, from the root of a checkout:

    python3 tools/bench_record.py RUNS --machine RECORD \\
        --parent-sha SHA --change-sha SHA --out BENCH_12.json

RUNS holds the last stdout line of each ``perfbench/run.py --trace 0`` run,
saved as ``RUNS/<side>/<workload>/<pair>.json`` with side ``parent`` or
``change``; runs of one pair carry the same file name on both sides, and
pairs are ordered by file name.  RECORD is a run record perfbench wrote
under ``.bench_work/`` on the same machine; it supplies nproc, the CPU, the
Python and numpy versions, the BLAS thread count and the run length.  For
every workload and every end-to-end metric of the checkout's BENCHMARK.json
the record holds each side's median and quartiles, the per-pair values, and
how many pairs the change won.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SIDES = ("parent", "change")
MACHINE_KEYS = ("nproc", "cpu", "python", "numpy", "blas_threads")


def quartiles(values):
    """(q1, median, q3) by the inclusive method; a single value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def load_side(runs: Path, side: str, workload: str) -> dict:
    """{pair name: {metric: value}} for one side of one workload."""
    out = {}
    for path in sorted((runs / side / workload).glob("*.json")):
        line = path.read_text().strip().splitlines()[-1]
        metrics = json.loads(line)["metrics"]
        out[path.stem] = {name: entry["value"] for name, entry in metrics.items()}
    return out


def summarize(values, better):
    """Median and quartiles of the parent and change values, per-pair values
    and the pairs the change won."""
    entry = {}
    for side in SIDES:
        q1, median, q3 = quartiles([v[side] for v in values])
        entry[side] = {"median": median, "q1": q1, "q3": q3}
    wins = [(c < p) if better == "lower" else (c > p)
            for p, c in ((v["parent"], v["change"]) for v in values)]
    entry["pairs"] = [[v["parent"], v["change"]] for v in values]
    entry["change_wins"] = sum(wins)
    parent, change = entry["parent"]["median"], entry["change"]["median"]
    entry["change_vs_parent"] = (change - parent) / parent if parent else None
    entry["parent_iqr"] = entry["parent"]["q3"] - entry["parent"]["q1"]
    return entry


def fold(runs: Path, benchmark: dict) -> dict:
    workloads = {}
    for w in benchmark["workloads"]:
        sides = {side: load_side(runs, side, w["name"]) for side in SIDES}
        pairs = sorted(set(sides["parent"]) & set(sides["change"]))
        if not pairs:
            continue
        metrics = {}
        for m in benchmark["end_to_end"]:
            values = [{side: sides[side][p][m["name"]] for side in SIDES} for p in pairs]
            metrics[m["name"]] = {"unit": m["unit"], "better": m["better"],
                                  "bound": m["bound"], **summarize(values, m["better"])}
        workloads[w["name"]] = {"pairs": pairs, "metrics": metrics}
    return workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("runs", type=Path)
    parser.add_argument("--machine", type=Path, required=True)
    parser.add_argument("--parent-sha", required=True)
    parser.add_argument("--change-sha", required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    record = json.loads(args.machine.read_text())
    workloads = fold(args.runs, json.loads(BENCHMARK.read_text()))
    if not workloads:
        print(f"bench_record: no paired runs under {args.runs}", file=sys.stderr)
        return 2
    out = {
        "machine": {key: record[key] for key in MACHINE_KEYS},
        "parent_sha": args.parent_sha,
        "change_sha": args.change_sha,
        "run": {"command": "python3 perfbench/run.py --trace 0", "seconds": record["seconds"],
                "order": "alternating which side runs first"},
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
