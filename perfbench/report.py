"""Summarise saved benchmark runs: per workload and metric, the median, the
quartiles, the quartile spread as a share of the median, and the highest
percentile with at least ten runs beyond it.

    python3 perfbench/report.py [--since UNIX_SECONDS] [--trace 0|1] [--json PATH]

Reads .perfbench_cache/results/, which perfbench/run.py fills. --json also
writes the summary, with the machine facts and inputs of the runs, to PATH.
"""
from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

from run import CACHE, tail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--since", type=float, default=0.0,
                    help="only runs that finished after this time (seconds since the epoch)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", default=None, help="also write the summary here")
    args = ap.parse_args(argv)
    groups: dict = {}
    about: dict = {}
    for path in sorted((CACHE / "results").glob("*.json")):
        finished = int(path.stem.rsplit("-", 1)[1]) / 1e9
        record = json.loads(path.read_text(encoding="utf-8"))
        if finished < args.since or record["trace"] != args.trace:
            continue
        rows = groups.setdefault(record["workload"], {})
        about.setdefault(record["workload"], {"machine": record["machine"], "seconds":
                                              record["seconds"], "inputs": []})
        about[record["workload"]]["inputs"].append(
            {k: record["inputs"][k] for k in ("seed", "n", "m", "dim", "total_bytes")})
        values = {k: m["value"] for k, m in record["metrics"].items()}
        values.update(record["subcommands"])
        values["wall_s"] = record["wall_s"]
        values["ops_failed"] = record["failed"]
        for k, v in values.items():
            rows.setdefault(k, []).append(v)
    summary: dict = {}
    for workload, rows in sorted(groups.items()):
        print(f"{workload}")
        summary[workload] = dict(about[workload], metrics={})
        print(f"  {'metric':<34}{'runs':>5}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}  tail")
        for name, vals in rows.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:<34}{len(vals):>5}{med:>12.4f}{q1:>12.4f}{q3:>12.4f}"
                  f"{spread:>9.4f}  {tail(vals)}")
            summary[workload]["metrics"][name] = {"runs": len(vals), "median": med,
                                                  "q1": q1, "q3": q3, "spread": spread}
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n",
                                   encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
