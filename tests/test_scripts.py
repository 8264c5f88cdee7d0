"""Golden output of the experiment scripts: the tables they print."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CROSSING = """\
scenario     association                   IDSW    IDF1    HOTA    MOTA
identical    adaptive (default)               0  1.0000  1.0000  1.0000
identical    frozen w_aaw=2 (appearance)     17  0.7750  0.7014  0.8875
identical    frozen w_aaw=1 (balanced)        0  1.0000  1.0000  1.0000
identical    frozen w_aaw=0 (motion)          0  1.0000  1.0000  1.0000
swapped      adaptive (default)               4  0.5667  0.5825  0.9750
swapped      frozen w_aaw=2 (appearance)      4  0.5667  0.5825  0.9750
swapped      frozen w_aaw=1 (balanced)        4  0.5667  0.5825  0.9750
swapped      frozen w_aaw=0 (motion)          0  1.0000  1.0000  1.0000
"""

THETA_SWEEP = """
theta         HOTA    MOTA    IDF1   IDSW
22.5        0.9165  0.9100  0.9558     24
45.0        0.9600  0.9600  0.9796      0
67.5        0.9600  0.9600  0.9796      0
80.0        0.9600  0.9600  0.9796      0

lambda        HOTA    MOTA    IDF1   IDSW
0.0         0.9600  0.9600  0.9796      0
0.1         0.9600  0.9600  0.9796      0
0.2         0.9600  0.9600  0.9796      0
0.4         0.9600  0.9600  0.9796      0
"""


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_crossing_stress_table():
    assert _run("crossing_stress.py") == CROSSING


def test_theta_sweep_table():
    assert _run("theta_sweep.py", "--seeds", "1", "--lambdas") == THETA_SWEEP


def test_output_digests_are_stable():
    both = _run("output_digests.py", "--workload", "crowd_dense", "--seed", "0", "1")
    rows = [line.split() for line in both.splitlines()]
    by_seed = {seed: [row for row in rows if row[0] == seed] for seed in ("0", "1")}
    assert len(rows) == sum(map(len, by_seed.values()))
    for seed_rows in by_seed.values():
        seqs = {row[2].split("/")[0] for row in seed_rows}
        assert len(seqs) == 2 and len(seed_rows) == 9 * len(seqs)
        assert all(len(row[1]) == 64 for row in seed_rows)
    assert [row[1] for row in by_seed["0"]] != [row[1] for row in by_seed["1"]]
    one = _run("output_digests.py", "--workload", "crowd_dense", "--seed", "1")
    assert [line.split() for line in one.splitlines()] == by_seed["1"]


def test_stage_peaks_prints_each_stage():
    out = _run("stage_peaks.py", "--workload", "crowd_dense", "--seed", "0")
    first, *rows = [line.split() for line in out.splitlines()]
    assert first[0] == "import" and len(first) == 2 and float(first[1]) > 0
    stages = ["synth", "filter", "track", "eval"]
    assert [(row[0], row[1], row[2]) for row in rows] == [
        ("0", seq, stage) for seq in ("crowd0", "crowd1") for stage in stages]
    for _, _, _, mib, ratio in rows:
        assert float(mib) > 0 and float(ratio) > 0


def _bench_ab():
    spec = importlib.util.spec_from_file_location("bench_ab", ROOT / "scripts" / "bench_ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_row(side, seed, filter_s, hota, track_s, correct=True):
    metrics = {"filter_s": {"value": filter_s, "unit": "s"}, "hota": {"value": hota, "unit": "1"},
               "track_s": {"value": track_s, "unit": "s"}}
    return {"rev": "abc1234", "side": side, "workload": "w", "seed": seed, "exit": 0,
            "correct": correct, "attempted": 3, "failed": int(not correct), "metrics": metrics}


def _track_verdict(bench_ab, rows, metrics):
    entry = bench_ab.summarize(rows, metrics)["track_s"]
    return entry["wins"], entry["holds"]


def test_bench_ab_summary_of_canned_rows():
    bench_ab = _bench_ab()
    parent = [1.0, 1.2, 1.1, 1.4, 0.9]
    change = [0.8, 1.2, 0.7, 0.9, 1.0]  # wins, tie, win, win, loss
    track_parent = [2.0, 2.1, 2.2, 2.3, 2.4]
    track_change = [1.6, 1.7, 1.8, 1.9, 2.0]  # five wins, each by 0.4
    rows = []
    for i, (p, c) in enumerate(zip(parent, change)):
        pair = [_bench_row("parent", 20 + i, p, 0.5, track_parent[i]),
                _bench_row("change", 20 + i, c, 0.5, track_change[i])]
        rows += pair if i % 2 == 0 else pair[::-1]  # the sides alternate going first
    rows.append(_bench_row("parent", 99, 5.0, 0.1, 9.0))  # no partner: left out
    metrics = [("filter_s", "lower", 0.25), ("hota", "higher", 0.25), ("track_s", "lower", 0.25),
               ("absent", "lower", 0.25)]
    summary = bench_ab.summarize(rows, metrics)
    assert summary == {
        "workload": "w", "seeds": [20, 21, 22, 23, 24], "pairs": 5, "correct": True, "failed": 0,
        "filter_s": {"parent_median": 1.1, "parent_iqr": 0.2, "median": 0.9, "iqr": 0.2,
                     "wins": 3, "change_pct": -18.2, "holds": False,
                     "worse_beyond_bound": False},
        "hota": {"parent_median": 0.5, "parent_iqr": 0.0, "median": 0.5, "iqr": 0.0, "wins": 0,
                 "change_pct": 0.0, "holds": False, "worse_beyond_bound": False, "equal": True},
        # 5/5 wins and a gap of 0.4 against the parent's IQR of 0.2
        "track_s": {"parent_median": 2.2, "parent_iqr": 0.2, "median": 1.8, "iqr": 0.2,
                    "wins": 5, "change_pct": -18.2, "holds": True,
                    "worse_beyond_bound": False},
    }
    # a gap inside the parent's IQR does not hold, nor do 4 wins in 5
    changed = {row["seed"]: row["metrics"]["track_s"] for row in rows if row["side"] == "change"}
    for seed, metric in changed.items():
        metric["value"] = track_parent[seed - 20] - 0.15
    assert _track_verdict(bench_ab, rows, metrics) == (5, False)
    for seed, metric in changed.items():
        metric["value"] = track_change[seed - 20]
    changed[20]["value"] = 2.5
    assert _track_verdict(bench_ab, rows, metrics) == (4, False)
    # worse by more than the bound, a fraction of the parent's median, on
    # either side of "better": track_s 2.2 -> 2.8 is +27%, hota 0.5 -> 0.3 -40%
    for seed, metric in changed.items():
        metric["value"] = track_parent[seed - 20] + 0.6
    hota = {row["seed"]: row["metrics"]["hota"] for row in rows if row["side"] == "change"}
    for metric in hota.values():
        metric["value"] = 0.3
    summary = bench_ab.summarize(rows, metrics)
    assert summary["track_s"]["worse_beyond_bound"] and summary["hota"]["worse_beyond_bound"]
    assert not bench_ab.summarize(rows, [("track_s", "lower", 0.3), ("hota", "higher", 0.5)])[
        "track_s"]["worse_beyond_bound"]
    for metric in hota.values():
        metric["value"] = 0.4  # -20%: inside the bound
    assert not bench_ab.summarize(rows, metrics)["hota"]["worse_beyond_bound"]
    rows[3]["correct"], rows[3]["failed"] = False, 2
    assert bench_ab.summarize(rows, [])["failed"] == 2
    assert not bench_ab.summarize(rows, [])["correct"]


def test_bench_ab_reads_the_end_to_end_metrics():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    metrics = _bench_ab().end_to_end_metrics()
    assert metrics == [(m["name"], m["better"], m["bound"]) for m in declared]
    assert ("filter_s", "lower", 0.25) in metrics and ("hota", "higher", 0.25) in metrics


def test_bench_ab_records_the_parent_rev_of_an_exported_checkout(tmp_path, monkeypatch):
    # a parent without .git (a git archive export) is recorded as --parent-rev;
    # the runs are stubbed, so no benchmark runs
    bench_ab = _bench_ab()
    parent = tmp_path / "parent"
    parent.mkdir()
    ran = []

    def run_bench(checkout, workload, seed, seconds):
        side = "parent" if checkout == parent.resolve() else "change"
        ran.append((side, seed))
        row = _bench_row(side, seed, 1.0 if side == "parent" else 0.9, 0.5, 2.0)
        return {key: row[key] for key in ("exit", "correct", "attempted", "failed", "metrics")}

    monkeypatch.setattr(bench_ab, "run_bench", run_bench)
    out = tmp_path / "BENCH_t.json"
    argv = ["--parent", str(parent), "--workload", "w", "--seeds", "20", "21", "--seconds", "1",
            "--out", str(out)]
    assert bench_ab.main([*argv, "--parent-rev", "1a2b3c4"]) == 0
    assert ran == [("parent", 20), ("change", 20), ("change", 21), ("parent", 21)]
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert [row["rev"] for row in rows if row["side"] == "parent"] == ["1a2b3c4"] * 2
    assert [row["rev"] for row in rows if row["side"] == "change"] == [bench_ab.git_rev(ROOT)] * 2
    out.unlink()
    assert bench_ab.main(argv) == 0
    assert {json.loads(line)["rev"] for line in out.read_text().splitlines()
            if json.loads(line)["side"] == "parent"} == {"unknown"}
