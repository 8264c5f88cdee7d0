"""Smoke test of the benchmark itself at tiny sizes.

Run from the repository root:  python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

from bench import END_TO_END, PER_LAYER, Bench  # noqa: E402
from workloads import WORKLOADS, occlusion_windows  # noqa: E402

TINY = dict(n_objects=8, n_frames=60, miss_rate=0.1, clutter_rate=0.3)


def _tiny_specs(workload, n_seqs):
    specs = []
    for name, spec in workload.specs(0)[:n_seqs]:
        spec = dict(spec, **TINY)
        if spec.get("occlusion_windows"):
            spec["occlusion_windows"] = occlusion_windows(TINY["n_objects"], TINY["n_frames"])
        specs.append((name, spec))
    return specs


def _run(bench, **kwargs):
    out = io.StringIO()
    result = bench.traced(**kwargs) if "scaling_shrink" in kwargs else bench.timed(**kwargs)
    with contextlib.redirect_stdout(out):
        bench.report(result)
    return result, out.getvalue().splitlines()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_counts_add_up(name, tmp_path):
    workload = WORKLOADS[name]
    bench = Bench(workload, 0, tmp_path, specs=_tiny_specs(workload, 2))
    result, lines = _run(bench, scaling_shrink=50)
    # the traced pass checks per-frame matches + births == detections and
    # that per-frame outputs equal the rows of results.txt
    assert result["correct"], [l for l in lines if l.startswith("CHECK FAILED")]
    assert bench.attempted > len(bench.seqs) * 3
    printed = json.loads(lines[-1])["metrics"]
    assert set(printed) == set(PER_LAYER)
    assert (tmp_path / "_out" / f"trace-{name}-seed0.jsonl").exists()
    assert not (tmp_path / "_work").exists() or not any((tmp_path / "_work").iterdir())


def test_timed_run_prints_every_metric(tmp_path):
    workload = WORKLOADS["prompts_multi"]
    bench = Bench(workload, 0, tmp_path, specs=_tiny_specs(workload, 2))
    result, lines = _run(bench, seconds=0)
    assert result["correct"]
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == set(END_TO_END)
    assert all(v["value"] > 0 for v in last["metrics"].values())
    table = {l.split()[0] for l in lines[:-1] if l and not l.startswith(("#", "sha256"))}
    assert {"id_switches", "error_rate", "step_samples", "ref_ms", "track_wall_s"} <= table


def test_benchmark_json_names_are_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_metrics_match_a_direct_eval(tmp_path):
    workload = WORKLOADS["lanes_long"]
    bench = Bench(workload, 0, tmp_path, specs=_tiny_specs(workload, 1))
    bench.probes.install(spans=False)
    try:
        bench.setup()
        bench.run_pass(bench.seqs, 1)
    finally:
        bench.probes.remove()
    (seq,) = bench.seqs
    direct = tmp_path / "direct.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [sys.executable, "-m", "macsort.cli", "eval", str(seq / "gt.txt"),
         str(seq / "results.txt"), "--json-out", str(direct)],
        check=True, env=env, capture_output=True,
    )
    assert json.loads(direct.read_text()) == bench.seq_metrics[seq.name]
    assert not bench.failures


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lanes_long", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
