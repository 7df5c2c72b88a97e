"""Compare a parent checkout with a change, using this benchmark for both.

    python3 benchmark/compare.py --parent ../parent-checkout [--change .] [--pairs 10]

Both sides run this directory's run.py, so benchmark code and settings
are identical; each side imports biphoton from its own src/.  Every
workload of BENCHMARK.json runs for its run_seconds.  Pair i uses seed
BASE_SEED + i on both sides and alternates which side runs first.  For
every workload and end-to-end metric the report gives each side's median
and quartiles and one verdict:

  gain        the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile range; void when more commands fail
  unresolved  either side's spread (IQR / median) exceeds the metric's
              bound, unless every change run beats every parent run
  regression  the change's median is worse than the parent's by more
              than the bound
  same        none of the above

The last stdout line is the whole report as JSON; a copy goes to
benchmark/out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WIN_SHARE = 0.9
BASE_SEED = 1000


def run_side(tree: Path, workload: str, seed: int) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: {' '.join(argv[1:])} exited {done.returncode}\n"
                           f"{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("context "):
            result["context"] = json.loads(line[len("context "):])
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else 0.0}


def verdict(metric: dict, parent: list[float], change: list[float],
            failed_parent: int, failed_change: int) -> dict:
    sign = 1.0 if metric["better"] == "higher" else -1.0
    p, c = summarize(parent), summarize(change)
    wins = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    all_better = min(sign * x for x in change) > max(sign * x for x in parent)
    gap = sign * (c["median"] - p["median"])
    worse_by = -gap / abs(p["median"]) if p["median"] else 0.0
    bound = metric["bound"]
    if wins >= WIN_SHARE * len(parent) and gap > p["q3"] - p["q1"]:
        result = "gain" if failed_change <= failed_parent else "gain void: more failures"
    elif max(p["spread"], c["spread"]) > bound and not all_better:
        result = "unresolved"
    elif worse_by > bound:
        result = "regression"
    else:
        result = "same"
    return {"parent": p, "change": c, "wins": wins, "pairs": len(parent),
            "worse_by": worse_by, "bound": bound, "verdict": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="parent/change benchmark pairs")
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, default=Path.cwd())
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 10:
        parser.error("the win rule needs at least 10 pairs")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    workloads = [w["name"] for w in SPEC["workloads"]]

    runs = {w: {"parent": [], "change": []} for w in workloads}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in workloads:
            for side in order:
                result = run_side(sides[side], workload, BASE_SEED + i)
                runs[workload][side].append(result)
                print(f"pair {i} {workload} {side}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}", flush=True)

    report = {"parent": str(sides["parent"]), "change": str(sides["change"]),
              "pairs": args.pairs, "seconds": SPEC["run_seconds"], "workloads": {}}
    for workload in workloads:
        side_runs = runs[workload]
        failed = {s: sum(r["failed"] for r in side_runs[s]) for s in sides}
        rows = {}
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            values = {s: [r["metrics"][name]["value"] for r in side_runs[s]] for s in sides}
            rows[name] = verdict(metric, values["parent"], values["change"],
                                 failed["parent"], failed["change"])
            row = rows[name]
            print(f"{workload:9s} {name:22s} parent {row['parent']['median']:.6g} "
                  f"[{row['parent']['q1']:.6g}, {row['parent']['q3']:.6g}]  change "
                  f"{row['change']['median']:.6g} [{row['change']['q1']:.6g}, "
                  f"{row['change']['q3']:.6g}]  wins {row['wins']}/{row['pairs']}  "
                  f"{row['verdict']}")
        context = {s: side_runs[s][0].get("context") for s in sides}
        report["workloads"][workload] = {"failed": failed, "context": context, "metrics": rows}
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"compare-{time.strftime('%Y%m%dT%H%M%S')}.json").write_text(
        json.dumps(report, indent=1))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
