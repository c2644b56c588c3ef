"""Summarize benchmark records over runs: median and quartiles per metric.

    python3 bench/summarize.py bench/out/*-trace0.json

Reads the full records that run.py writes under bench/out/ and prints, per
workload, trace mode and metric, the median, the quartiles as
statistics.quantiles(n=4) gives them, and the spread (q3 - q1) / median;
per ring and status, the median over runs of each run's p50 latency.
Unscaled figures (see run.py) appear as raw.<metric>.
bench/baseline.json is this output for ten untraced seeds and one traced
seed per workload.
"""

import json
import statistics
import sys


def summarize(records):
    out = {}
    for rec in records:
        entry = out.setdefault(rec["workload"], {}).setdefault(f"trace{rec['trace']}", {
            "python": rec["python"], "nproc": rec["nproc"], "git_sha": rec["git_sha"],
            "src_lines": rec["src_lines"], "seconds": rec["seconds"],
            "seeds": [], "failed": 0, "attempted": 0, "metrics": {}, "by_ring": {},
        })
        entry["seeds"].append(rec["seed"])
        entry["failed"] += rec["failed"]
        entry["attempted"] += rec["attempted"]
        raw = {f"raw.{name}": m for name, m in rec.get("raw_metrics", {}).items()}
        for name, m in {**rec["metrics"], **rec.get("ungated_metrics", {}), **raw}.items():
            if m["value"] is not None:
                entry["metrics"].setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
        for ring, cells in rec.get("by_ring", {}).items():
            for status, cell in cells.items():
                entry["by_ring"].setdefault(ring, {}).setdefault(status, []).append(cell["us_p50"])
    for entry in (e for modes in out.values() for e in modes.values()):
        for m in entry["metrics"].values():
            values = m.pop("values")
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            m.update(median=med, q1=q1, q3=q3, spread=(q3 - q1) / med if med else None, runs=len(values))
        entry["by_ring"] = {
            ring: {status: {"us_p50": statistics.median(v), "runs": len(v)} for status, v in sorted(cells.items())}
            for ring, cells in sorted(entry["by_ring"].items())
        }
    return out


def main(paths):
    records = [json.loads(open(path, encoding="utf-8").read()) for path in paths]
    print(json.dumps(summarize(records), indent=1, sort_keys=True))


if __name__ == "__main__":
    main(sys.argv[1:])
