"""Run the benchmark over several seeds and report each metric's spread.

    python3 benchmarks/spread.py [--workloads a,b] [--seeds 1-10] [--trace 0|1] [--out FILE]

For every workload and end-to-end metric this prints the median, the
quartiles (``statistics.quantiles(values, n=4)``), the interquartile range as
a share of the median, and that share against a third of the metric's bound
in ``BENCHMARK.json``.  Runs go one at a time.  ``--out`` writes the per-seed
results, with each run's provenance, and the summary as JSON; that is how
``baseline-e2e.json`` (``--seeds 1-10``), ``baseline-e2e-repeat.json``
(``--seeds 11-20``, a second set of the same code) and ``baseline-trace.json``
(``--trace 1 --seeds 1-2``) were made at the commit they record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(command, workload, seed, seconds, trace) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        if line.startswith("provenance "):
            result["provenance"] = json.loads(line.split(" ", 1)[1])
        elif line.startswith(("FAILED", "note:")):
            print(f"  {workload} seed {seed}: {line[:200]}")
    return result


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    report = {"seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            res = run_once(spec["command"], workload, seed, spec["run_seconds"], args.trace)
            runs.append({"seed": seed, **res})
            ok &= res["correct"] and res["failed"] == 0
        summary = {}
        failed, attempted = sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)
        print(f"{workload}: {len(runs)} runs, correct {all(r['correct'] for r in runs)}, "
              f"failed {failed} of {attempted}, failed_ratio {failed / attempted:.6g} ratio")
        for m in metrics:
            s = summarize([r["metrics"][m["name"]]["value"] for r in runs])
            summary[m["name"]] = s
            if "bound" in m:
                flag = "ok" if s["spread"] < m["bound"] / 3 else ("WITHIN BOUND" if s["spread"] <= m["bound"] else "OVER BOUND")
                print(f"  {m['name']:14s} median {s['median']:.6g} {m['unit']}  IQR/median {s['spread']:.4f}"
                      f"  bound/3 {m['bound'] / 3:.4f}  {flag}")
        report["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
