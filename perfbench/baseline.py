"""Record the benchmark baseline: repeated runs of every workload, with the
median and quartiles of each metric, written to ``baseline.json``.

    python3 perfbench/baseline.py

Each of two sets runs every workload ten times untraced, each run with its
own seed, then twice traced.  For each end-to-end metric the file records
per set the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread, the interquartile distance as a share of the median; it also
records whether every spread (setup_s excepted) and every change of median
between sets stays within the metric's bound in BENCHMARK.json.  Takes
about 20 minutes per set.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
SETS = 2
FIRST_SEED = 1000


def machine() -> dict:
    import numpy
    import scipy

    model = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, *bench["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: {proc.stderr}")
    return result


def summarise(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    report = {"machine": machine(), "run_seconds": bench["run_seconds"], "workloads": {}}
    for w in (x["name"] for x in bench["workloads"]):
        sets, traced = [], []
        for s in range(SETS):
            first = FIRST_SEED + 1000 * s
            runs = [run_once(bench, w, first + i, 0) for i in range(RUNS)]
            sets.append({
                name: summarise([r["metrics"][name]["value"] for r in runs]) for name in bounds
            })
            traced += [run_once(bench, w, first, 1) for _ in range(2)]
            print(f"{w} set {s}: " + ", ".join(
                f"{k} {v['median']:.4g} ({v['spread']:.3f})" for k, v in sets[-1].items()),
                file=sys.stderr, flush=True)
        ok = {}
        for name, spec in bounds.items():
            spreads_ok = name == "setup_s" or all(st[name]["spread"] <= spec["bound"] for st in sets)
            base = sets[0][name]["median"]
            worse = [(st[name]["median"] - base) / base * (1 if spec["better"] == "lower" else -1)
                     for st in sets[1:]]
            ok[name] = spreads_ok and all(x <= spec["bound"] for x in worse)
        report["workloads"][w] = {
            "end_to_end": sets,
            "per_layer": {
                k: {"value": statistics.median(t["metrics"][k]["value"] for t in traced),
                    "unit": v["unit"]}
                for k, v in traced[0]["metrics"].items()
            },
            "within_bounds": ok,
        }
    path = HERE / "baseline.json"
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}", file=sys.stderr)


if __name__ == "__main__":
    main()
