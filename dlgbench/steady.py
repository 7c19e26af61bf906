"""Steadiness report: run each workload over many seeds and summarise.

    python3 dlgbench/steady.py --seeds 1-10 --out .bench_out/steady-a.json
    python3 dlgbench/steady.py --seeds 1-10 --against .bench_out/steady-a.json

Runs dlgbench/run.py once per (workload, seed), one run at a time, with
BENCHMARK.json's run_seconds. For each end-to-end metric it reports the
median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median, which must stay within the metric's bound and
should stay below a third of it. With --against, it also
checks that each median is no worse than the earlier report's by more
than the bound. With --trace it makes traced runs instead and reports
the median of each per-layer metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, "dlgbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result\n{done.stdout}{done.stderr}")
    return result


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0,
            "min": min(values), "max": max(values), "values": values}


def worse_by(old: float, new: float, better: str) -> float:
    """How much worse new is than old, as a share of old (negative = better)."""
    return (new - old) / old if better == "lower" else (old - new) / old


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help="range like 1-10 or list like 3,7")
    ap.add_argument("--trace", action="store_true", help="traced runs: per-layer medians")
    ap.add_argument("--out", help="write the report here as JSON")
    ap.add_argument("--against", help="an earlier report to compare medians with")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = seed_list(args.seeds)
    earlier = json.loads(Path(args.against).read_text())["workloads"] if args.against else {}

    report = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    ok = True
    for wl in workloads:
        runs = [run_once(wl, s, spec["run_seconds"], int(args.trace)) for s in seeds]
        entry = {"attempted": [r["attempted"] for r in runs]}
        print(f"{wl}: {len(runs)} runs, attempted {min(entry['attempted'])}..{max(entry['attempted'])}")
        report["workloads"][wl] = entry
        if args.trace:
            entry["per_layer_median"] = {
                n: statistics.median(r["metrics"][n]["value"] for r in runs) for n in runs[0]["metrics"]}
            for n, v in entry["per_layer_median"].items():
                print(f"  {n:44s} {v:12.6g}")
            continue
        entry["end_to_end"] = {}
        for name, m in bounds.items():
            st = summarise([r["metrics"][name]["value"] for r in runs])
            entry["end_to_end"][name] = st
            verdict = ("steady" if st["spread"] <= m["bound"] / 3
                       else "within bound" if st["spread"] <= m["bound"] else "EXCEEDS bound")
            if verdict == "EXCEEDS bound":
                ok = False
            line = (f"  {name:12s} median {st['median']:12.6g}  q1 {st['q1']:12.6g}  q3 {st['q3']:12.6g}"
                    f"  spread {st['spread']:6.2%} (bound {m['bound']:.0%}) {verdict}")
            if wl in earlier:
                old = earlier[wl]["end_to_end"][name]["median"]
                drift = worse_by(old, st["median"], m["better"])
                line += f"  vs earlier {drift:+.2%} {'ok' if drift <= m['bound'] else 'WORSE than bound'}"
                ok = ok and drift <= m["bound"]
            print(line)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
