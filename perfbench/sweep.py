"""Repeat the benchmark over seeds and report each metric's spread.

    python3 perfbench/sweep.py --runs 10 [--first-seed 1] [--workloads a,b] [--trace 0]

Each round runs every workload once, with one seed per round; the workload
order rotates from round to round so that drift on a shared machine does
not fall on one workload.  For every workload and metric it prints the
median, the quartiles (statistics.quantiles, n=4) and their distance as a
share of the median, next to the metric's bound in BENCHMARK.json.  All
result lines are saved under .perfbench_runs/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    doc = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
    doc.update(workload=workload, seed=seed, rc=proc.returncode, took_s=time.perf_counter() - t0, log=lines[:-1])
    if proc.returncode != 0:
        print(proc.stderr[-2000:], file=sys.stderr)
    return doc


def spread_table(results: list[dict], bounds: dict[str, float]) -> list[str]:
    rows = []
    for wl in dict.fromkeys(r["workload"] for r in results):
        runs = [r for r in results if r["workload"] == wl]
        names = dict.fromkeys(k for r in runs for k in r["metrics"])
        for name in names:
            vals = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            share = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            mark = "" if bound is None else f"bound {bound:.2f} {'ok' if share <= bound / 3 else 'WIDE' if share > bound else 'over 1/3'}"
            rows.append(f"{wl:13s} {name:24s} median {med:14.6g} q1 {q1:14.6g} q3 {q3:14.6g} spread {share:7.2%} {mark}")
        took = [r["took_s"] for r in runs]
        bad = sum(1 for r in runs if not r.get("correct"))
        rows.append(f"{wl:13s} runs {len(runs)}, incorrect {bad}, run time median {statistics.median(took):.1f} s max {max(took):.1f} s")
    return rows


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out_dir = ROOT / ".perfbench_runs"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"sweep-{time.strftime('%Y%m%d-%H%M%S')}.jsonl"
    results = []
    for i in range(args.runs):
        k = i % len(workloads)
        for wl in workloads[k:] + workloads[:k]:
            doc = run_once(wl, args.first_seed + i, args.seconds, args.trace)
            results.append(doc)
            with open(out, "a") as fh:
                fh.write(json.dumps(doc) + "\n")
            print(f"round {i + 1} {wl}: correct={doc.get('correct')} took {doc['took_s']:.1f} s", flush=True)
    print("\n".join(spread_table(results, bounds)))
    print(f"results: {out}")
    return 0 if all(r.get("correct") for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
