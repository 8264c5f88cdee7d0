#!/usr/bin/env python3
"""Paired benchmark runs: a parent checkout against this one.

For each seed it runs ``python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0`` in the parent checkout and in this one, one after
the other: the parent goes first in the first pair, this checkout in the
second, and so on. Each run's last stdout line, the benchmark's JSON, is
appended to ``--out`` as one JSON line, with the checkout's git revision
(``--parent-rev`` for a parent checkout without ``.git``, such as a ``git
archive`` export), the side (``parent`` or ``change``), the workload and
the seed. Then it prints one summary line: for each end-to-end metric of
BENCHMARK.json, the parent's median and interquartile range, this
checkout's median and interquartile range, the pairs that this checkout
won (ties count for neither side), the change of the median in percent,
with ``equal`` when every pair read the same, ``holds``: whether a gain on
that metric is shown, that is this checkout won at least 9 in 10 of the
pairs and the medians differ by more than the parent's interquartile
range, and ``worse_beyond_bound``: whether this checkout's median is worse
than the parent's by more than the metric's ``bound`` (a fraction of the
parent's median). The benchmark and BENCHMARK.json are only read, never
edited.

Usage:
    python scripts/bench_ab.py --parent ../parent --parent-rev 1a2b3c4 \\
        --workload prompts_multi --seeds 20 21 22 --seconds 30 --out BENCH_label.json
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def end_to_end_metrics(
    bench_json: Path = ROOT / "BENCHMARK.json",
) -> list[tuple[str, str, float]]:
    """(name, better, bound) of each end-to-end metric the benchmark declares."""
    spec = json.loads(bench_json.read_text())
    return [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]


def git_rev(checkout: Path, fallback: str = "unknown") -> str:
    """The checkout's git revision, or ``fallback`` when it has no ``.git``
    of its own (an exported copy) or git cannot name one."""
    if not (checkout / ".git").exists():
        return fallback
    proc = subprocess.run(["git", "-C", str(checkout), "describe", "--always", "--dirty"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else fallback


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One timed benchmark run in ``checkout``: its JSON line, with the exit
    code; a run that prints no JSON is recorded as failed."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
                  "error": tail[-1] if tail else "no output"}
    return {"exit": proc.returncode, **result}


def summarize(rows: list[dict], metrics: list[tuple[str, str]]) -> dict:
    """The summary of one workload's paired rows: per metric, the parent's
    and the change's median and interquartile range, the change's wins, the
    median's change in percent, whether the gain holds and whether the
    median is worse than the parent's by more than the bound. Only seeds
    run on both sides count."""
    sides = {side: {r["seed"]: r for r in rows if r["side"] == side}
             for side in ("parent", "change")}
    seeds = [seed for seed in sides["parent"] if seed in sides["change"]]
    paired = [row for side in sides.values() for seed, row in side.items() if seed in seeds]
    summary = {
        "workload": rows[0]["workload"] if rows else None,
        "seeds": seeds,
        "pairs": len(seeds),
        "correct": all(row["correct"] and row["exit"] == 0 for row in paired),
        "failed": sum(row["failed"] for row in paired),
    }
    for name, better, bound in metrics:
        pairs = [(sides["parent"][s]["metrics"][name]["value"],
                  sides["change"][s]["metrics"][name]["value"])
                 for s in seeds
                 if name in sides["parent"][s]["metrics"] and name in sides["change"][s]["metrics"]]
        if not pairs:
            continue
        parent, change = np.array(pairs).T
        q1, parent_median, q3 = np.percentile(parent, [25, 50, 75]).tolist()
        c1, median, c3 = np.percentile(change, [25, 50, 75]).tolist()
        sign = 1.0 if better == "higher" else -1.0
        gain = sign * (change - parent)
        wins = int((gain > 0).sum())
        entry = {
            "parent_median": round(parent_median, 4),
            "parent_iqr": round(q3 - q1, 4),
            "median": round(median, 4),
            "iqr": round(c3 - c1, 4),
            "wins": wins,
            "change_pct": round(100.0 * (median - parent_median) / parent_median, 1)
            if parent_median else None,
            # at least 9 wins in 10 pairs, and a gap wider than the parent's spread
            "holds": 10 * wins >= 9 * len(pairs) and abs(median - parent_median) > q3 - q1,
            "worse_beyond_bound": sign * (parent_median - median) > bound * abs(parent_median),
        }
        if np.array_equal(parent, change):
            entry["equal"] = True
        summary[name] = entry
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, type=Path, help="the parent checkout's root")
    ap.add_argument("--parent-rev", default="unknown",
                    help="the revision recorded for a parent checkout that has no .git")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=int, nargs="+")
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--out", required=True, type=Path, help="BENCH_<label>.json, appended to")
    args = ap.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": ROOT}
    revs = {"parent": git_rev(checkouts["parent"], args.parent_rev), "change": git_rev(ROOT)}
    rows = []
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_bench(checkouts[side], args.workload, seed, args.seconds)
            row = {"rev": revs[side], "side": side, "workload": args.workload, "seed": seed,
                   **result}
            with args.out.open("a") as out:
                out.write(json.dumps(row) + "\n")
            rows.append(row)
    summary = summarize(rows, end_to_end_metrics())
    print(json.dumps(summary, separators=(",", ":")))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
