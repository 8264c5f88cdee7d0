"""Batch command-line frontend: filter -> track -> eval pipelines.

Subcommands: filter, track, eval, synth, parse-captions. Configuration
precedence is flags > config file > defaults. Multiple sequence directories
run on a thread pool of one worker, or of as many as the MACSORT_THREADS
environment variable sets (the work holds the GIL, so more threads are
rarely faster); each sequence itself runs strictly sequentially, so
outputs do not depend on the worker count.

Exit codes: 0 ok, 1 runtime error or stdout closed by its reader, 2 input
error. Errors print one machine-parseable "ErrorName: detail" line on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields
from pathlib import Path

import numpy as np

from .captions import load_annotation, parse_caption
from .config import RunConfig, build_config, config_key
from .errors import InputError, MacSortError, ParseError
from .geometry import BBox
from .metrics import TrackSequence, evaluate
from .mot_io import (  # read_mot_lines, read_embeddings: hooked here by perfbench
    DETECTION_ID,
    MotTable,
    _load_prompt_file,
    check_boxes,
    detection_sets,
    read_embeddings,
    read_mot_lines,
    read_prompt_dump_all,
    write_detections,
    write_mot,
)
from .prompt_filter import MemoryBank, PromptDetections, tpod_frame
from .synth import generate, read_spec, write_spec
from .tracker import track_sequence


def _worker_count() -> int:
    count = os.environ.get("MACSORT_THREADS", "")
    if count.strip():
        try:
            return max(1, int(count))
        except ValueError:
            raise InputError(f"MACSORT_THREADS must be an integer, got {count!r}")
    return 1


def _out_dir(cfg: RunConfig, seq_dir: Path) -> Path:
    out = Path(cfg.output_dir) if cfg.output_dir else seq_dir
    out.mkdir(parents=True, exist_ok=True)
    return out


def _resolve_seq_dirs(cfg: RunConfig, seq_dirs) -> list[Path]:
    base = Path(cfg.input_dir) if cfg.input_dir else Path(".")
    return [base / d for d in seq_dirs]


def _run_sequences(cfg: RunConfig, seq_dirs, fn) -> list[str]:
    """Run fn over each sequence dir in parallel; print in input order."""
    with ThreadPoolExecutor(max_workers=_worker_count()) as pool:
        futures = [pool.submit(fn, d) for d in _resolve_seq_dirs(cfg, seq_dirs)]
        return [f.result() for f in futures]


def cmd_filter(args, cfg: RunConfig) -> int:
    tpod_cfg = cfg.tpod_config()
    if cfg.annotation_file:
        ann = load_annotation(cfg.annotation_file)
        query = parse_caption(ann.caption, ann)
        print(
            f"[filter] caption prompts: general={query.general!r} "
            f"include={query.include!r} exclude={query.exclude!r}"
        )

    def one(seq_dir: Path) -> str:
        dump = read_prompt_dump_all(seq_dir, cfg.detection_threshold)
        memory = MemoryBank(kappa1=cfg.kappa1, kappa2=cfg.kappa2)
        kept, stats = {}, []
        dim = 1
        for frame in sorted(dump):
            general, include, exclude = dump[frame]
            dim = max(dim, general.dim)
            res = tpod_frame(general, include, exclude, memory, frame, tpod_cfg)
            kept[frame] = res.final_tps
            stats.append(res.stats)
        out = _out_dir(cfg, seq_dir)
        rows = PromptDetections.concat(*kept.values(), PromptDetections.empty(dim))
        frames = np.repeat(list(kept), [len(s) for s in kept.values()])
        table = MotTable.from_uvwh(frames, DETECTION_ID, rows.boxes, rows.scores)
        write_detections(out / "filtered.txt", out / "filtered.emb", table, rows.features)
        counts = " ".join(
            f"{name}={sum(getattr(s, f'n_{name}') for s in stats)}"
            for name in ("general", "ie_tps", "dropped", "rescued", "rejected")
        )
        return f"[filter] {seq_dir} frames={max(dump, default=0)} {counts} final={len(table)}"

    for report in _run_sequences(cfg, args.seq_dirs, one):
        print(report)
    return 0


def _load_detections(seq_dir: Path, cfg: RunConfig, which: str):
    if which == "auto":
        which = "filtered" if (seq_dir / "filtered.txt").exists() else "general"
    loaded = _load_prompt_file(seq_dir, which, required=False)
    if loaded is None:
        raise InputError(f"detection file {seq_dir / which}.txt not found")
    return which, detection_sets(*loaded)


def _track_table(rows: list[tuple[int, int, BBox]]) -> MotTable:
    """(frame, id, box) rows as a table with confidence 1."""
    frames, ids, boxes = zip(*rows) if rows else ((), (), ())
    return MotTable.from_uvwh(frames, ids, boxes, 1.0)


def cmd_track(args, cfg: RunConfig) -> int:
    assoc_cfg = cfg.assoc_config()

    def one(seq_dir: Path) -> str:
        which, per_frame = _load_detections(seq_dir, cfg, args.detections)
        start = time.perf_counter()
        rows = track_sequence(per_frame, assoc_cfg)
        elapsed = time.perf_counter() - start
        out = _out_dir(cfg, seq_dir)
        write_mot(_track_table(rows), out / "results.txt")
        return (
            f"[track] {seq_dir} detections={which} frames={max(per_frame, default=0)} "
            f"rows={len(rows)} time={elapsed:.3f}s"
        )

    for report in _run_sequences(cfg, args.seq_dirs, one):
        print(report)
    return 0


def _read_track_file(path) -> TrackSequence:
    table = read_mot_lines(path)
    check_boxes(table, path)
    try:
        return TrackSequence.from_mot(table)
    except ValueError as exc:  # a (frame, id) pair repeats
        raise ParseError(f"{path}: {exc}") from exc


def cmd_eval(args, cfg: RunConfig) -> int:
    gt = _read_track_file(args.gt)
    pred = _read_track_file(args.results)
    report = evaluate(
        gt, pred, iou_threshold=cfg.iou_threshold, hota_sweep=cfg.hota_sweep
    )
    print(report.to_text())
    json_out = Path(args.json_out) if args.json_out else Path(
        str(args.results) + ".metrics.json"
    )
    json_out.write_text(report.to_json() + "\n", encoding="utf-8")
    print(f"[eval] wrote {json_out}")
    return 0


def cmd_synth(args, cfg: RunConfig) -> int:
    spec = read_spec(args.spec_file)
    scenario = generate(spec)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_mot(scenario.gt_table(), out / "gt.txt")
    write_detections(out / "general.txt", out / "general.emb", scenario.detection_table(),
                     scenario.embeddings)
    write_spec(spec, out / "scenario.spec")
    print(
        f"[synth] {args.out_dir}: {spec.n_objects} objects x {spec.n_frames} frames, "
        f"{len(scenario.det_frame)} detections"
    )
    return 0


def cmd_parse_captions(args, cfg: RunConfig) -> int:
    ann_dir = Path(args.annotation_dir)
    # listing raises FileNotFoundError or NotADirectoryError; glob() would find nothing
    files = sorted(p for p in ann_dir.iterdir() if p.match("*.json"))
    if not files:
        print(f"[parse-captions] warning: no .json annotations in {ann_dir}")
        return 0
    errors = 0
    for path in files:
        try:
            ann = load_annotation(path)
            query = parse_caption(ann.caption, ann)
        except MacSortError as exc:
            errors += 1
            print(f"ERROR {path.name}: {type(exc).__name__}: {exc}")
            continue
        print(
            f"OK {path.name}: general={query.general!r} "
            f"include={query.include!r} exclude={query.exclude!r}"
        )
    print(f"[parse-captions] {len(files)} files, {errors} errors")
    if errors:
        print(f"CaptionValidation: {errors} invalid annotations", file=sys.stderr)
        return 2
    return 0


# flags that are not "--" + the config key: they turn a true default off
_FLAG_SPELLINGS = {
    "use_appearance": "--disable-appearance",
    "use_direction": "--disable-direction",
    "cold_start_passthrough": "--no-cold-start-passthrough",
}


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """One override flag per RunConfig field. A bool flag takes no value and
    sets the opposite of the default; every other flag takes the raw string
    that build_config parses, as it parses a config file's."""
    parser.add_argument("--config", metavar="FILE", help="key=value config file")
    g = parser.add_argument_group("config overrides")
    for f in fields(RunConfig):
        flag = _FLAG_SPELLINGS.get(f.name, "--" + config_key(f.name).replace("_", "-"))
        if f.type == "bool":
            g.add_argument(flag, dest=f.name, action="store_const", const=not f.default)
        else:
            g.add_argument(flag, dest=f.name)


def _overrides_from_args(args) -> dict:
    """The config flags given; an absent flag overrides nothing."""
    given = {f.name: getattr(args, f.name) for f in fields(RunConfig)}
    return {name: value for name, value in given.items() if value is not None}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="macsort",
        description="Prompt-filtered generic multi-object tracking toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("filter", help="IE + memory filtering of a prompt dump")
    p.add_argument("seq_dirs", nargs="+", metavar="SEQ_DIR")
    _add_config_flags(p)
    p.set_defaults(fn=cmd_filter)

    p = sub.add_parser("track", help="associate detections into tracks")
    p.add_argument("seq_dirs", nargs="+", metavar="SEQ_DIR")
    p.add_argument(
        "--detections",
        default="auto",
        metavar="NAME",
        help="detection file stem; 'auto' prefers filtered over general",
    )
    _add_config_flags(p)
    p.set_defaults(fn=cmd_track)

    p = sub.add_parser("eval", help="score results against ground truth")
    p.add_argument("gt", metavar="GT_FILE")
    p.add_argument("results", metavar="RESULTS_FILE")
    p.add_argument("--json-out", metavar="FILE")
    _add_config_flags(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("synth", help="generate a synthetic scenario")
    p.add_argument("spec_file", metavar="SPEC_FILE")
    p.add_argument("out_dir", metavar="OUT_DIR")
    _add_config_flags(p)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("parse-captions", help="validate annotation captions")
    p.add_argument("annotation_dir", metavar="ANNOTATION_DIR")
    _add_config_flags(p)
    p.set_defaults(fn=cmd_parse_captions)

    return parser


def _discard_stdout() -> None:
    """Send further writes to stdout, and its flush at exit, to devnull once
    the reader has gone (``macsort eval ... | head``)."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # a stream with no descriptor
        sys.stdout = open(os.devnull, "w")
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args.config, _overrides_from_args(args))
        code = args.fn(args, cfg)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        _discard_stdout()
        return 1
    except InputError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"FileNotFound: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a directory given for a file, a file for a directory, ...
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except MacSortError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
