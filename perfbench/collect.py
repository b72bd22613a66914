"""Summarize benchmark records: median, quartiles and spread per metric.

    python3 perfbench/collect.py .perfbench-out/results/*-trace0.json
    python3 perfbench/collect.py --write summary.json .perfbench-out/results/*

Groups the records written by run.py by workload and trace flag and, for
every metric, reports the number of runs, the median, the first and third
quartiles and the spread (q3 - q1) / median.  `--write` also stores the
summary, with the per-command metrics and the failure counts, next to the
machine, commit and src/ line count of the records.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def summarize(records):
    groups = {}
    for rec in records:
        key = f"{rec['workload']}-trace{rec['trace']}"
        groups.setdefault(key, []).append(rec)
    out = {}
    for key, recs in sorted(groups.items()):
        attempted = sum(r["attempted"] for r in recs)
        failed = sum(r["failed"] for r in recs)
        out[key] = {
            "seeds": sorted(r["seed"] for r in recs),
            "attempted": attempted,
            "failed": failed,
            "failed_ratio": failed / attempted,
            "correct": all(r["correct"] for r in recs),
            "metrics": _quartiles(recs, "metrics"),
            "command_metrics": _quartiles(recs, "command_metrics"),
        }
        if "samples" in recs[0]:
            # the sample count behind each run's median: fewest, most
            out[key]["samples_per_run"] = {
                name: [min(r["samples"][name] for r in recs),
                       max(r["samples"][name] for r in recs)]
                for name in recs[0]["samples"]}
        if "cmd_vs_seed" in recs[0]:
            out[key]["cmd_vs_seed"] = {
                job: _spread([r["cmd_vs_seed"][job]["median"] for r in recs])
                for job in recs[0]["cmd_vs_seed"]}
            out[key]["pooled"] = {
                name: _spread([r["pooled"][name] for r in recs])
                for name in recs[0]["pooled"]}
    return out


def _spread(values):
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (median, median, median))
    return {"runs": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def _quartiles(recs, field):
    return {name: {"unit": recs[0][field][name]["unit"],
                   **_spread([r[field][name]["value"] for r in recs])}
            for name in recs[0][field]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("records", nargs="+", type=Path)
    parser.add_argument("--write", type=Path, default=None)
    args = parser.parse_args(argv)
    records = [json.loads(p.read_text()) for p in args.records]
    summary = summarize(records)
    for key, group in summary.items():
        print(f"{key}: seeds {group['seeds']}, {group['attempted']} commands, "
              f"{group['failed']} failed (failed_ratio "
              f"{group['failed_ratio']:.4f}), correct={group['correct']}")
        rows = {**group["metrics"], **group.get("cmd_vs_seed", {}),
                **group.get("pooled", {})}
        for name, m in rows.items():
            spread = "n/a" if m["spread"] is None else f"{m['spread']:.4f}"
            print(f"  {name:34s} median {m['median']:.6g} {m.get('unit', '')} "
                  f"[{m['q1']:.6g}, {m['q3']:.6g}] spread {spread}")
    if args.write is not None:
        first = records[0]
        doc = {key: first[key] for key in ("commit", "src_lines", "machine")}
        doc["summary"] = summary
        args.write.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
