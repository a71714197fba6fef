"""Run the benchmark on several seeds and summarise each metric's spread.

    python3 perfbench/repeat.py [--workload NAME ...] [--seeds 1-10]
                                [--out FILE]

Runs are made one after another, untraced, with BENCHMARK.json's
run_seconds; by default every workload is run.  For every metric it prints
the median, the quartiles (statistics.quantiles with n=4) and the
interquartile range as a share of the median, next to the metric's bound.
`--out` writes the summaries, every run's result and the environment of the
first run as JSON (perfbench/baseline.json was made this way).
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


def seeds(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def repeat(workload, seed_list, seconds, bounds) -> dict:
    values, runs = {}, []
    for seed in seed_list:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"{workload} seed {seed}: exit "
                               f"{proc.returncode}\n{proc.stderr[-2000:]}"
                               f"\n{proc.stdout[-2000:]}")
        result = json.loads(lines[-1])
        runs.append({"seed": seed, **result})
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"{workload} seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
            flush=True)
    summary = {}
    for name, xs in values.items():
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4)
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "iqr_share": (q3 - q1) / med, "bound": bounds[name],
                         "n": len(xs)}
        print(f"  {name:18s} median {med:10.4f}  q1 {q1:10.4f}  "
              f"q3 {q3:10.4f}  iqr/median {(q3 - q1) / med:.4f}  "
              f"(bound {bounds[name]})", flush=True)
    return {"summary": summary, "runs": runs}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out", help="write the summaries as JSON here")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seed_list = seeds(args.seeds)
    if len(seed_list) < 2:
        ap.error("quartiles need at least two seeds")
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    report = {"run_seconds": spec["run_seconds"], "seeds": seed_list,
              "workloads": {}}
    for workload in workloads:
        try:
            report["workloads"][workload] = repeat(
                workload, seed_list, spec["run_seconds"], bounds)
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 1
    first = HERE / "results" / f"{workloads[0]}-seed{seed_list[0]}-trace0.json"
    report["environment"] = json.loads(first.read_text())["environment"]
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
