"""Runs one workload: set-up, warm-up, checked passes, metrics, report."""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import threading
import time
import traceback
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

import calib
import macsort.cli
from macsort.mot_io import read_mot_lines
from probes import SPAN_NAMES, Probes
from workloads import generate, gt_boxes, object_labels

# name -> unit; these and only these go into the last stdout line
END_TO_END = {
    "det_per_s": "det/s",
    "filter_s": "s",
    "track_s": "s",
    "eval_s": "s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "hota": "1",
    "idf1": "1",
}
# printed in the table only: id_switches and error_rate read 0 on healthy runs
# of some workloads, so they cannot carry a relative bound (the JSON's
# "failed" carries the errors); step_samples counts the frames timed; ref_ms
# is the reference work's median time and the *_wall_s are the wall times
# before scaling
END_TO_END_EXTRA = {
    "id_switches": "count", "error_rate": "ratio", "step_samples": "count",
    "passes": "count", "ref_ms": "ms", "setup_wall_s": "s", "filter_wall_s": "s",
    "track_wall_s": "s", "eval_wall_s": "s",
}

PER_LAYER = {
    "mot_io.parse_s": "s", "mot_io.parse_rows": "count", "mot_io.emb_read_s": "s",
    "mot_io.dump_group_s": "s", "mot_io.write_s": "s", "mot_io.bytes_written": "B",
    "prompt_filter.frame_s": "s", "prompt_filter.ie_s": "s", "prompt_filter.lsm_s": "s",
    "prompt_filter.memory_s": "s", "prompt_filter.in": "count",
    "prompt_filter.ie_tps": "count", "prompt_filter.dropped": "count",
    "prompt_filter.rescued": "count", "prompt_filter.rejected": "count",
    "prompt_filter.precision": "ratio", "prompt_filter.recall": "ratio",
    "motion.predict_s": "s", "motion.update_s": "s", "motion.ocr_s": "s",
    "motion.ocr_calls": "count", "motion.ocr_virtual_steps": "count",
    "motion.births": "count",
    "tracker.cost_s": "s", "tracker.assign_s": "s", "tracker.step_self_s": "s",
    "tracker.cost_cells": "count", "tracker.gate_pass_ratio": "ratio",
    "tracker.matches": "count",
    "tracker.us_per_det.n100": "us", "tracker.us_per_det.n300": "us",
    "tracker.us_per_det.n1000": "us", "tracker.us_per_det.n2000": "us",
    "metrics.load_s": "s", "metrics.evaluate_s": "s", "metrics.match_frame_s": "s",
    "metrics.match_frame_calls": "count", "metrics.iou_calls": "count",
    "metrics.assign_s": "s",
    "synth.generate_s": "s",
    "cli.pool_wall_s": "s", "cli.seq_busy_s": "s", "cli.thread_speedup": "ratio",
    "trace.det_per_s": "det/s", "trace.overhead_pct": "%",
    "trace.filter_s": "s", "trace.track_s": "s", "trace.eval_s": "s",
}

SCALING_DETS = (100, 300, 1000, 2000)  # detections per frame, tracker.us_per_det.n<N>
SCALING_FRAMES = 24

MIN_PASSES = 3
SETUPS = 3  # set-ups in a timed run, one before each of its first passes
REF_SAMPLES = 4  # runs of the reference work before each timed step

DIGESTED = ("filtered.txt", "filtered.emb", "results.txt", "results.txt.metrics.json")


class PassFailed(Exception):
    """A subcommand failed or raised; later outputs would be meaningless."""


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON constant {token}")


def _row_count(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip())


class Bench:
    def __init__(self, workload, seed: int, bench_dir: Path, specs=None):
        self.workload = workload
        self.seed = seed
        self.specs = specs if specs is not None else workload.specs(seed)
        self.work = bench_dir / "_work" / f"{workload.name}-{os.getpid()}"
        self.out = bench_dir / "_out"
        self.probes = Probes()
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, dict[str, str]] = {}
        self.seq_metrics: dict[str, dict] = {}
        self.seqs = []
        self.ref_s: list[float] = []  # reference work times, see calib.py
        self._lock = threading.Lock()

    # -- checks and subcommands --------------------------------------------

    def check(self, ok: bool, what: str) -> bool:
        with self._lock:  # concurrent evals check too
            self.attempted += 1
            if not ok:
                self.failures.append(what)
        return ok

    def cli(self, argvs: list[list[str]], threads: int = 1) -> float:
        """Run subcommands in-process, up to ``threads`` at a time; return
        their wall time in seconds."""
        err = io.StringIO()

        def one(argv):
            try:
                with self.probes.tracer.span(f"cli.{argv[0]}"):
                    rc = macsort.cli.main(argv)
            except Exception:
                self.check(False, f"macsort {argv[0]} raised:\n{traceback.format_exc()}")
                raise PassFailed(argv[0])
            if not self.check(rc == 0, f"macsort {argv[0]} exited {rc}: {err.getvalue().strip()}"):
                raise PassFailed(argv[0])

        self._prepare()
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            if threads == 1:
                for argv in argvs:
                    one(argv)
            else:
                with ThreadPoolExecutor(max_workers=threads) as pool:
                    list(pool.map(one, argvs))
        return time.perf_counter() - start

    def _prepare(self) -> None:
        """Before a timed step: collect garbage, then time the reference work."""
        # a user runs each subcommand in a fresh process: start each step
        # with no garbage pending, so that full collections fall at the
        # same points in every pass
        gc.collect()
        self.ref_s += calib.sample(REF_SAMPLES)

    # -- phases ---------------------------------------------------------------

    def setup(self) -> float:
        """Generate the inputs afresh; return the wall time in seconds."""
        shutil.rmtree(self.work / "seqs", ignore_errors=True)
        self._prepare()
        start = time.perf_counter()
        with self.probes.tracer.span("setup"):
            self.seqs = generate(self.specs, self.work / "seqs", self.workload.prompts)
        elapsed = time.perf_counter() - start
        self.dets = sum(_row_count(d / "general.txt") for d in self.seqs)
        return elapsed

    def warm_up(self) -> None:
        """One untimed set-up and pass over a tiny copy of the first sequence."""
        _, spec = self.specs[0]
        tiny = dict(spec, n_frames=min(spec["n_frames"], 40),
                    n_objects=min(spec["n_objects"], 12), occlusion_windows=[])
        self.run_pass(generate([("warm", tiny)], self.work / "warm", self.workload.prompts), 1)

    def run_pass(self, seqs, threads: int) -> dict[str, float]:
        """filter, track and eval over every sequence, then check the outputs.

        Returns the wall time of each subcommand, and under "step_ms" the
        latency of each MacSort.step call of the track call by (sequence,
        frame). Steps wait for another sequence's thread at ``threads`` > 1.
        """
        os.environ["MACSORT_THREADS"] = str(threads)
        dirs = [str(d) for d in seqs]
        first_step = len(self.probes.steps)
        times = {"filter_s": self.cli([["filter", *dirs]]),
                 "track_s": self.cli([["track", *dirs]])}
        steps = self.probes.steps[first_step:]
        # eval takes one sequence; run them like the CLI pool runs the others
        times["eval_s"] = self.cli(
            [["eval", str(d / "gt.txt"), str(d / "results.txt")] for d in seqs], threads
        )
        self._check_outputs(seqs, steps)
        times["step_ms"] = {(s[0], s[1]): s[2] * 1e3 for s in steps}
        return times

    def _check_outputs(self, seqs, steps) -> None:
        for seq in seqs:
            name = seq.name
            outputs = sum(s[4] for s in steps if s[0] == name)
            rows = _row_count(seq / "results.txt")
            self.check(rows == outputs and rows > 0,
                       f"{name}: results.txt has {rows} rows, MacSort.step returned {outputs}")
            try:
                report = json.loads((seq / "results.txt.metrics.json").read_text(),
                                    parse_constant=_reject_constant)
                finite = all(math.isfinite(v) for v in report.values())
            except ValueError:
                report, finite = {}, False
            self.check(finite, f"{name}: metrics JSON is not valid and finite")
            self.seq_metrics[name] = report
            digests = {f: _sha256(seq / f) for f in DIGESTED}
            first = self.digests.setdefault(name, digests)
            self.check(digests == first, f"{name}: outputs differ between passes")

    # -- the two kinds of run ---------------------------------------------------

    def timed(self, seconds: float) -> dict:
        """Untraced run: the end-to-end metrics.

        Every pass runs at 1 thread; the first SETUPS passes each start with
        a set-up of their own. A shared machine can run the same code up to
        1.5x slower for seconds at a time, on one core more often than on
        the other, and for minutes at a time on both. So the passes take
        turns on the cores, each timing is the median over at least
        MIN_PASSES passes spread over the run, and every timing is scaled
        by how fast the reference work of calib.py ran during the run.
        """
        self.probes.install(spans=False)
        times = {"setup_s": [], "filter_s": [], "track_s": [], "eval_s": [], "step_ms": []}
        passes = 0
        cpus = sorted(os.sched_getaffinity(0))
        try:
            self.warm_up()
            start = time.perf_counter()
            while passes < MIN_PASSES or time.perf_counter() - start < seconds:
                # threads started by this one, the CLI pool's too, inherit it
                os.sched_setaffinity(0, {cpus[passes % len(cpus)]})
                if passes < SETUPS:
                    times["setup_s"].append(self.setup())
                for key, value in self.run_pass(self.seqs, 1).items():
                    times[key].append(value)
                if not passes:
                    # a user runs each subcommand in a fresh process; later
                    # passes here only add the allocator's fragmentation
                    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                passes += 1
        except PassFailed:
            pass
        finally:
            os.sched_setaffinity(0, cpus)
            self.probes.remove()
            shutil.rmtree(self.work, ignore_errors=True)
        if not passes:
            return self._result({}, {})
        per_frame = defaultdict(list)
        for pass_steps in times.pop("step_ms"):
            for frame, ms in pass_steps.items():
                per_frame[frame].append(ms)
        # each frame's latency is its mean over the passes, and so over both
        # cores: a percentile of single samples jumps between the fast and
        # slow speeds of a shared machine, a percentile of means moves smoothly
        frame_ms = [statistics.fmean(v) for v in per_frame.values()]
        reports = [self.seq_metrics[d.name] for d in self.seqs]
        walls = {k: statistics.median(v) for k, v in times.items()}
        # timings in reference seconds: wall seconds at the speed at which
        # the reference work takes calib.REFERENCE_S
        ref_s = statistics.median(self.ref_s)
        scale = calib.REFERENCE_S / ref_s
        metrics = {k: v * scale for k, v in walls.items()}
        pass_s = metrics["filter_s"] + metrics["track_s"] + metrics["eval_s"]
        metrics.update(
            det_per_s=self.dets / pass_s,
            step_ms_p50=scale * float(np.percentile(frame_ms, 50)),
            step_ms_p90=scale * float(np.percentile(frame_ms, 90)),
            peak_rss_mb=peak_mb,
            hota=statistics.mean(r.get("hota", 0.0) for r in reports),
            idf1=statistics.mean(r.get("idf1", 0.0) for r in reports),
        )
        extra = {
            "id_switches": sum(r.get("id_switches", 0) for r in reports),
            "error_rate": len(self.failures) / self.attempted,
            "step_samples": len(frame_ms),
            "passes": passes,
            "ref_ms": ref_s * 1e3,
            **{k.replace("_s", "_wall_s"): v for k, v in walls.items()},
        }
        return self._result({k: (metrics[k], END_TO_END[k]) for k in END_TO_END}, extra)

    def traced(self, scaling_shrink: int = 1) -> dict:
        """Traced run: per-layer metrics from one traced pass at 1 thread,
        thread scaling from untraced passes at 1 and 2 threads, and the
        track-only crowd scaling table (detections per frame divided by
        ``scaling_shrink``)."""
        probes, tracer = self.probes, self.probes.tracer
        probes.install(spans=True)
        try:
            tracer.enabled = True
            self.setup()
            tracer.enabled = False
            self.warm_up()
            plain, walls = {}, {}
            for threads in (1, 2):
                pools, busy = len(probes.pool_walls), len(probes.seq_busy)
                plain[threads] = self._pass_s(self.run_pass(self.seqs, threads))
                walls[threads] = sum(probes.pool_walls[pools:])
            busy_s = sum(probes.seq_busy[busy:])
            since = len(tracer.spans)
            tracer.enabled = True
            traced = self._pass_s(self.run_pass(self.seqs, 1))
            tracer.enabled = False
            metrics = self._layer_metrics(since)
            metrics.update({
                "cli.pool_wall_s": walls[2],
                "cli.seq_busy_s": busy_s,
                "cli.thread_speedup": walls[1] / walls[2],
                "trace.det_per_s": self.dets / sum(traced.values()),
                "trace.overhead_pct": 100.0 * (sum(traced.values()) / sum(plain[1].values()) - 1.0),
                "trace.filter_s": traced["filter_s"],
                "trace.track_s": traced["track_s"],
                "trace.eval_s": traced["eval_s"],
            })
            metrics.update(self._scaling(scaling_shrink))
            tracer.write_jsonl(self.out / f"trace-{self.workload.name}-seed{self.seed}.jsonl")
        except PassFailed:
            return self._result({}, {})
        finally:
            probes.remove()
            shutil.rmtree(self.work, ignore_errors=True)
        return self._result({k: (metrics[k], PER_LAYER[k]) for k in PER_LAYER}, {})

    # -- metric assembly ------------------------------------------------------

    @staticmethod
    def _pass_s(times: dict) -> dict[str, float]:
        return {k: times[k] for k in ("filter_s", "track_s", "eval_s")}

    def _check_trace_counts(self, since: int) -> None:
        """Each frame's matches plus births equal its detections, and the
        traced outputs add up, frame by frame, to the rows of results.txt."""
        spans = self.probes.tracer.spans
        children = defaultdict(list)
        for s in spans[since:]:
            children[s[3]].append(s)
        traced_rows = {d.name: Counter() for d in self.seqs}
        for idx in range(since, len(spans)):
            name, _, _, _, seq, attrs = spans[idx]
            if name != "tracker.step":
                continue
            kids = children[idx]
            matches = sum(k[5]["matches"] for k in kids if k[0] == "tracker.assign")
            births = sum(1 for k in kids if k[0] == "motion.init")
            self.check(matches + births == attrs["dets"] and attrs["outputs"] <= attrs["dets"],
                       f"{seq} frame {attrs['frame']}: {matches} matches + {births} births "
                       f"vs {attrs['dets']} detections, {attrs['outputs']} outputs")
            traced_rows[seq][attrs["frame"]] += attrs["outputs"]
        for seq in self.seqs:
            with open(seq / "results.txt", encoding="utf-8") as fh:
                rows = Counter(int(line.split(",", 1)[0]) for line in fh if line.strip())
            self.check(rows == +traced_rows[seq.name],
                       f"{seq.name}: traced per-frame outputs differ from results.txt")

    def _layer_metrics(self, since: int) -> dict[str, float]:
        t = self.probes.tracer
        self._check_trace_counts(since)
        for name in SPAN_NAMES:
            self.check(t.calls(name, 0 if name == "synth.generate" else since) > 0,
                       f"no calls recorded through the {name} probe")
        if self.workload.prompts:
            self.check(t.attr_sum("prompt_filter.frame", "ie_tps", since) > 0,
                       "include prompts produced no IE true positives")
        filtered = tp = objects = 0
        for seq in self.seqs:
            gt = gt_boxes(seq / "gt.txt")
            objects += int(object_labels(read_mot_lines(seq / "general.txt"), gt).sum())
            records = read_mot_lines(seq / "filtered.txt")
            filtered += len(records)
            tp += int(object_labels(records, gt).sum())
        cells = t.attr_sum("tracker.cost", "cells", since)
        return {
            "mot_io.parse_s": t.total_s("mot_io.parse", since),
            "mot_io.parse_rows": t.attr_sum("mot_io.parse", "rows", since),
            "mot_io.emb_read_s": t.total_s("mot_io.emb_read", since),
            "mot_io.dump_group_s": t.self_s("mot_io.dump", since),
            "mot_io.write_s": t.total_s("mot_io.write", since),
            "mot_io.bytes_written": t.attr_sum("mot_io.write", "bytes", since),
            "prompt_filter.frame_s": t.total_s("prompt_filter.frame", since),
            "prompt_filter.ie_s": t.total_s("prompt_filter.ie", since),
            "prompt_filter.lsm_s": t.total_s("prompt_filter.lsm", since),
            "prompt_filter.memory_s": t.total_s("prompt_filter.memory", since),
            **{f"prompt_filter.{key}": t.attr_sum("prompt_filter.frame", attr, since)
               for key, attr in (("in", "n_in"), ("ie_tps", "ie_tps"), ("dropped", "dropped"),
                                 ("rescued", "rescued"), ("rejected", "rejected"))},
            "prompt_filter.precision": tp / max(filtered, 1),
            "prompt_filter.recall": tp / max(objects, 1),
            "motion.predict_s": t.total_s("motion.predict", since),
            "motion.update_s": t.total_s("motion.update", since),
            "motion.ocr_s": t.total_s("motion.ocr", since),
            "motion.ocr_calls": t.calls("motion.ocr", since),
            "motion.ocr_virtual_steps": t.attr_sum("motion.ocr", "gap", since),
            "motion.births": t.calls("motion.init", since),
            "tracker.cost_s": t.total_s("tracker.cost", since),
            "tracker.assign_s": t.total_s("tracker.assign", since),
            "tracker.step_self_s": t.self_s("tracker.step", since),
            "tracker.cost_cells": cells,
            "tracker.gate_pass_ratio": t.attr_sum("tracker.cost", "finite", since) / max(cells, 1),
            "tracker.matches": t.attr_sum("tracker.assign", "matches", since),
            "metrics.load_s": t.total_s("metrics.load", since),
            "metrics.evaluate_s": t.total_s("metrics.evaluate", since),
            "metrics.match_frame_s": t.total_s("metrics.match_frame", since),
            "metrics.match_frame_calls": t.calls("metrics.match_frame", since),
            "metrics.iou_calls": t.calls("metrics.iou", since),
            "metrics.assign_s": t.total_s("metrics.assign", since),
            "synth.generate_s": t.total_s("synth.generate"),
        }

    def _scaling(self, shrink: int) -> dict[str, float]:
        """Track-only cost per detection at growing detections per frame."""
        os.environ["MACSORT_THREADS"] = "1"
        out = {}
        for label in SCALING_DETS:
            n = label // shrink
            spec = dict(seed=1000 + self.seed, n_objects=n, n_frames=SCALING_FRAMES,
                        motion="linear", appearance_homogeneity=0.3, detection_noise_px=1.0,
                        embedding_dim=128, field_w=4000, field_h=50 * (n + 1), speed_px=1.5)
            (seq,) = generate([(f"n{n}", spec)], self.work / "scaling", prompts=False)
            first = len(self.probes.steps)
            self.cli([["track", str(seq)]])
            steps = [s for s in self.probes.steps[first:] if s[1] > 1]  # frame 1 only births
            seconds, dets = sum(s[2] for s in steps), sum(s[3] for s in steps)
            out[f"tracker.us_per_det.n{label}"] = 1e6 * seconds / dets
            shutil.rmtree(seq)
        return out

    # -- output -----------------------------------------------------------------

    def _result(self, metrics: dict[str, tuple[float, str]], extra: dict) -> dict:
        return {"correct": not self.failures and bool(metrics), "metrics": metrics, "extra": extra}

    def report(self, result: dict) -> None:
        for failure in self.failures:
            print(f"CHECK FAILED: {failure}")
        print(f"# workload={self.workload.name} seed={self.seed}")
        for name, (value, unit) in result["metrics"].items():
            print(f"{name:32s} {value:16.6f} {unit}")
        for name, value in result["extra"].items():
            unit = END_TO_END_EXTRA[name]
            print(f"{name:32s} {value:16.6f} {unit}")
        for seq in self.seqs:
            for fname, digest in self.digests.get(seq.name, {}).items():
                print(f"sha256 {seq.name}/{fname} {digest}")
        print(json.dumps({
            "correct": result["correct"],
            "attempted": max(self.attempted, 1),
            "failed": max(len(self.failures), int(not result["correct"])),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
        }))
