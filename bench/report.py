"""Run every workload untraced and traced; print one table, write one record.

    python3 bench/report.py --seed 1 --seconds 30 --out bench/baseline.json

Prints wall_s, task_p50_s, setup_s, peak_rss_mb and fail_frac with unit and
sample count for each workload, the per-layer metrics of the traced runs, and
the ROADMAP's hand-measured rows beside the traced run's values.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import BENCH, ROOT
from workloads import WORKLOADS


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--out", type=Path, help="write the combined record here")
    args = ap.parse_args()

    work = ROOT / ".bench_work" / "report"
    work.mkdir(parents=True, exist_ok=True)
    record = {"seed": args.seed, "seconds": args.seconds, "workloads": {}, "roadmap_rows": []}
    try:
        for workload in WORKLOADS:
            entry = {}
            for trace in (0, 1):
                out = work / f"{workload}-{trace}.json"
                subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                                "--seed", str(args.seed), "--seconds", str(args.seconds),
                                "--trace", str(trace), "--out", str(out)],
                               check=True, stdout=subprocess.DEVNULL)
                run = json.loads(out.read_text())
                record["env"] = run["env"]
                entry["end_to_end" if trace == 0 else "per_layer"] = {
                    name: {"value": v, "unit": u, "samples": n}
                    for name, (v, u, n) in run["metrics"].items()}
                entry.setdefault("problems", []).extend(run["problems"])
                for row in run.get("roadmap_rows", []):
                    if all(row["row"] != r["row"] for r in record["roadmap_rows"]):
                        record["roadmap_rows"].append(dict(row, workload=workload))
            record["workloads"][workload] = entry
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any((ROOT / ".bench_work").iterdir()):
            (ROOT / ".bench_work").rmdir()

    print(f"{'workload':15s} {'metric':44s} {'value':>12s} unit   samples")
    for workload, entry in record["workloads"].items():
        for part in ("end_to_end", "per_layer"):
            for name, m in entry[part].items():
                samples = "-" if m["samples"] is None else m["samples"]
                print(f"{workload:15s} {name:44s} {m['value']:12.6g} {m['unit']:6s} {samples}")
        for label, found in entry["problems"]:
            print(f"{workload:15s} FAIL {label}: {'; '.join(found)}")
    print(f"\n{'ROADMAP row':50s} {'hand':>8s} {'measured':>10s} unit samples")
    for row in record["roadmap_rows"]:
        print(f"{row['row']:50s} {row['hand']:8.4g} {row['measured']:10.4g} {row['unit']:4s} "
              f"{row['samples']:>7d}" + ("" if row["agrees"] else "  DISAGREES"))
    if args.out:
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    return 0 if all(not e["problems"] for e in record["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
