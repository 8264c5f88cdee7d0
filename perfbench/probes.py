"""Where the benchmark hooks into macsort, and the counts each hook records.

Every probe wraps a public function in the namespace of the module that
calls it, so a span covers exactly the calls one layer makes into another.
The ``MacSort.step`` probe and the pool hooks are installed on every run
(they cost a clock read per frame and per sequence); the other span probes
only on traced runs.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np

import macsort.cli
import macsort.metrics
import macsort.mot_io
import macsort.prompt_filter
import macsort.tracker
from spans import Tracer


def _rows(attrs, args, result):
    attrs["rows"] = len(result)


def _csv_emb_bytes(attrs, args, result):
    attrs["bytes"] = os.path.getsize(args[0]) + os.path.getsize(args[1])


def _mot_bytes(attrs, args, result):
    attrs["bytes"] = os.path.getsize(args[1])


def _filter_stats(attrs, args, result):
    s = result.stats
    attrs.update(frame=args[4], n_in=s.n_general, ie_tps=s.n_ie_tps,
                 dropped=s.n_dropped, rescued=s.n_rescued, rejected=s.n_rejected)


def _step(attrs, args, result):
    attrs.update(frame=args[2], dets=len(args[1]), outputs=len(result))


def _cost(attrs, args, result):
    attrs.update(cells=len(args[0]) * len(args[1]),
                 finite=int(np.isfinite(result.total).sum()))


def _matches(attrs, args, result):
    attrs["matches"] = len(result[0])


def _gap(attrs, args, result):
    attrs["gap"] = args[3]


# (span name, owner, attribute, count recorder); the owner is the caller's
# module, or the class for methods.
PROBES = [
    ("mot_io.parse", macsort.cli, "read_mot_lines", _rows),
    ("mot_io.parse", macsort.mot_io, "read_mot_lines", _rows),
    ("mot_io.emb_read", macsort.cli, "read_embeddings", None),
    ("mot_io.emb_read", macsort.mot_io, "read_embeddings", None),
    ("mot_io.dump", macsort.cli, "read_prompt_dump_all", None),
    ("mot_io.write", macsort.cli, "write_detections", _csv_emb_bytes),
    ("mot_io.write", macsort.cli, "write_mot", _mot_bytes),
    ("prompt_filter.frame", macsort.cli, "tpod_frame", _filter_stats),
    ("prompt_filter.ie", macsort.prompt_filter, "ie_classify", None),
    ("prompt_filter.lsm", macsort.prompt_filter, "lsm_similarity_profile", None),
    ("prompt_filter.lsm", macsort.prompt_filter, "lsm_classify", None),
    ("prompt_filter.memory", macsort.prompt_filter.MemoryBank, "update", None),
    ("tracker.cost", macsort.tracker, "build_cost_matrix", _cost),
    ("tracker.assign", macsort.tracker, "linear_assignment", _matches),
    ("motion.predict", macsort.tracker, "kf_predict_batch", None),
    ("motion.update", macsort.tracker, "kf_update_batch", None),
    ("motion.ocr", macsort.tracker, "ocr_reupdate", _gap),
    ("motion.init", macsort.tracker, "kf_init", None),
    ("metrics.load", macsort.metrics.TrackSequence, "from_mot", None),
    ("metrics.evaluate", macsort.cli, "evaluate", None),
    ("metrics.match_frame", macsort.metrics, "match_frame", None),
    ("metrics.iou", macsort.metrics, "iou_matrix", None),
    ("metrics.assign", macsort.metrics, "linear_assignment", None),
    ("synth.generate", macsort.cli, "generate", None),
]
# timed on every run: the step log feeds step_ms and the results.txt check
STEP_PROBE = ("tracker.step", macsort.tracker.MacSort, "step", _step)
SPAN_NAMES = sorted({p[0] for p in PROBES} | {STEP_PROBE[0]})


class Probes:
    """All hooks of one run: the span tracer, the step log and pool timings."""

    def __init__(self):
        self.tracer = Tracer()
        # (seq, frame, seconds, detections, outputs) per MacSort.step call
        self.steps: list[tuple[str, int, float, int, int]] = []
        # wall time of each pool, and busy time of each sequence task in it;
        # appends, not sums, because pool threads report concurrently
        self.pool_walls: list[float] = []
        self.seq_busy: list[float] = []

    def install(self, spans: bool) -> None:
        """Hook the step log and the pool in; with ``spans`` also every
        span probe of PROBES."""
        tracer = self.tracer
        if spans:
            for name, owner, attr, record in PROBES:
                tracer.probe(owner, attr, name, record)
        probes = self

        def log_step(args, result, seconds):
            _, detections, frame = args
            probes.steps.append((tracer.seq, frame, seconds, len(detections), len(result)))

        name, owner, attr, record = STEP_PROBE
        tracer.probe(owner, attr, name, record, log=log_step)

        base_pool = macsort.cli.ThreadPoolExecutor

        class TimedPool(base_pool):
            def __enter__(self):
                self._start = time.perf_counter()
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    probes.pool_walls.append(time.perf_counter() - self._start)

            def submit(self, fn, seq_dir):
                parent = tracer.current()

                def task():
                    tracer.adopt(parent, Path(seq_dir).name)
                    start = time.perf_counter()
                    try:
                        with tracer.span("cli.seq"):
                            return fn(seq_dir)
                    finally:
                        probes.seq_busy.append(time.perf_counter() - start)

                return super().submit(task)

        tracer.replace(macsort.cli, "ThreadPoolExecutor", TimedPool)

    def remove(self) -> None:
        self.tracer.remove()
