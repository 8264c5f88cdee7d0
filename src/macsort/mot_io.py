"""Readers and writers for MOT-Challenge CSV files, binary embedding
sidecars, and per-prompt detection dumps.

Canonical CSV form: frame-sorted, one record per line, boxes with two
decimals, confidence with four; writing a file read in canonical form
reproduces it byte for byte.

Embedding sidecar layout (little-endian): 4-byte magic ``EMB1``, int32
dimension D, int64 row count R, then R*D float32 values; row i belongs to
line i of the companion CSV.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    BadMagic,
    MissingGeneralFile,
    NonPositiveBox,
    ParseError,
    SidecarMismatch,
    TruncatedBody,
)
from .geometry import BBox
from .prompt_filter import PromptDetections, TpodConfig

EMB_MAGIC = b"EMB1"
DETECTION_ID = -1


@dataclass(frozen=True)
class MotRecord:
    """One MOT CSV line. Detections carry id -1; results carry id >= 1."""

    frame: int
    id: int
    left: float
    top: float
    width: float
    height: float
    conf: float
    x: float = -1.0
    y: float = -1.0
    z: float = -1.0

    def bbox(self) -> BBox:
        return BBox(
            self.left + self.width / 2.0,
            self.top + self.height / 2.0,
            self.width,
            self.height,
        )

    @classmethod
    def from_bbox(cls, frame: int, obj_id: int, box: BBox, conf: float) -> "MotRecord":
        return cls(frame, obj_id, box.left, box.top, box.w, box.h, conf)


def format_record(rec: MotRecord) -> str:
    return (
        f"{rec.frame},{rec.id},{rec.left:.2f},{rec.top:.2f},"
        f"{rec.width:.2f},{rec.height:.2f},{rec.conf:.4f},"
        f"{int(rec.x)},{int(rec.y)},{int(rec.z)}"
    )


def _parse_line(line: str, lineno: int) -> MotRecord:
    cols = [c.strip() for c in line.split(",")]
    if len(cols) not in (9, 10):
        raise ParseError(f"line {lineno}: expected 9 or 10 columns, got {len(cols)}")
    try:
        frame = int(cols[0])
        obj_id = int(cols[1])
        vals = [float(c) for c in cols[2:]]
    except ValueError as exc:
        raise ParseError(f"line {lineno}: {exc}") from exc
    if not all(map(math.isfinite, vals)):
        raise ParseError(f"line {lineno}: non-finite value in {line!r}")
    if frame < 1:
        raise ParseError(f"line {lineno}: frame must be >= 1, got {frame}")
    left, top, width, height, conf = vals[:5]
    if width <= 0 or height <= 0:
        raise NonPositiveBox(f"line {lineno}: w={width}, h={height}")
    if obj_id == DETECTION_ID and not 0.0 <= conf <= 1.0:
        raise ParseError(f"line {lineno}: detection confidence {conf} outside [0, 1]")
    rest = vals[5:] + [-1.0] * (5 - len(vals))
    return MotRecord(frame, obj_id, left, top, width, height, conf, *rest[:3])


def read_mot_lines(path: str | Path) -> list[MotRecord]:
    """Records in file order (needed for sidecar row alignment).

    Raises ParseError or NonPositiveBox naming the file and line.
    """
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(_parse_line(line, lineno))
            except (ParseError, NonPositiveBox) as exc:
                raise type(exc)(f"{path} {exc}") from exc
    return records


def read_mot(path: str | Path) -> dict[int, list[MotRecord]]:
    """Records grouped by frame, frames ascending, file order within frame."""
    grouped: dict[int, list[MotRecord]] = {}
    for rec in read_mot_lines(path):
        grouped.setdefault(rec.frame, []).append(rec)
    return {f: grouped[f] for f in sorted(grouped)}


def write_mot(records, path: str | Path) -> None:
    """Write records frame-sorted (stable within a frame) in canonical form."""
    if isinstance(records, dict):
        records = [r for f in sorted(records) for r in records[f]]
    ordered = sorted(records, key=lambda r: r.frame)
    with open(path, "w", encoding="utf-8") as fh:
        for rec in ordered:
            fh.write(format_record(rec) + "\n")


def write_embeddings(embs: np.ndarray, path: str | Path) -> None:
    """Write a (R, D) array as an EMB1 sidecar (values stored as float32)."""
    arr = np.atleast_2d(np.asarray(embs, dtype=np.float32))
    rows, dim = arr.shape
    if dim < 1:
        raise ValueError("embedding dimension must be >= 1")
    with open(path, "wb") as fh:
        fh.write(EMB_MAGIC)
        fh.write(struct.pack("<i", dim))
        fh.write(struct.pack("<q", rows))
        fh.write(arr.astype("<f4").tobytes(order="C"))


def read_embeddings(path: str | Path) -> np.ndarray:
    """Read an EMB1 sidecar into a (R, D) float64 array."""
    data = Path(path).read_bytes()
    if len(data) < 16 or data[:4] != EMB_MAGIC:
        raise BadMagic(f"{path}: not an EMB1 sidecar")
    dim = struct.unpack("<i", data[4:8])[0]
    rows = struct.unpack("<q", data[8:16])[0]
    if dim < 1 or rows < 0:
        raise TruncatedBody(f"{path}: bad header dim={dim}, rows={rows}")
    expected = rows * dim * 4
    body = data[16:]
    if len(body) != expected:
        raise TruncatedBody(f"{path}: body has {len(body)} bytes, expected {expected}")
    arr = np.frombuffer(body, dtype="<f4").reshape(rows, dim)
    return arr.astype(np.float64)


def write_detections(
    csv_path: str | Path,
    emb_path: str | Path,
    records: list[MotRecord],
    embeddings: np.ndarray,
) -> None:
    """Write an aligned detections CSV + sidecar pair.

    Records must already be in the exact row order of the embedding matrix;
    both are written as given (records additionally must be frame-sorted
    for the CSV to be canonical).
    """
    if len(records) != len(embeddings):
        raise SidecarMismatch(
            f"{csv_path}: {len(records)} records vs {len(embeddings)} embedding rows"
        )
    with open(csv_path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(format_record(rec) + "\n")
    write_embeddings(np.asarray(embeddings), emb_path)


def _load_prompt_file(
    seq_dir: Path, stem: str, required: bool
) -> tuple[list[MotRecord], np.ndarray] | None:
    csv_path = seq_dir / f"{stem}.txt"
    emb_path = seq_dir / f"{stem}.emb"
    if not csv_path.exists():
        if required:
            raise MissingGeneralFile(f"{csv_path} not found")
        return None
    records = read_mot_lines(csv_path)
    if not emb_path.exists():
        raise SidecarMismatch(f"{emb_path} missing for {csv_path}")
    embs = read_embeddings(emb_path)
    if len(records) != len(embs):
        raise SidecarMismatch(
            f"{csv_path}: {len(records)} rows vs {len(embs)} embedding rows"
        )
    return records, embs


def _rows_by_frame(records: list[MotRecord], threshold: float) -> dict[int, list[int]]:
    """Indices of the rows scoring at least ``threshold``, grouped by frame
    in file order; every frame with a row has a key, kept rows or not."""
    groups: dict[int, list[int]] = {}
    for i, rec in enumerate(records):
        rows = groups.setdefault(rec.frame, [])
        if rec.conf >= threshold:
            rows.append(i)
    return groups


def read_prompt_dump_all(
    seq_dir: str | Path, detection_threshold: float = TpodConfig.detection_threshold
) -> dict[int, tuple[PromptDetections, PromptDetections, PromptDetections]]:
    """Load a whole prompt dump as general/include/exclude sets per frame.

    Frames run 1..max frame seen in any prompt file; frames with no rows
    get empty sets so that downstream memory windows still advance. Absent
    include/exclude files mean empty prompt sets; scores below the
    detection threshold are dropped.
    """
    seq_dir = Path(seq_dir)
    general = _load_prompt_file(seq_dir, "general", required=True)
    dim = general[1].shape[1] if len(general[1]) else 1
    absent = ([], np.zeros((0, dim)))
    files = [general] + [
        _load_prompt_file(seq_dir, stem, required=False) or absent
        for stem in ("include", "exclude")
    ]
    groups = [_rows_by_frame(records, detection_threshold) for records, _ in files]
    last = max((max(g, default=0) for g in groups), default=0)

    per_file = []
    for (records, embs), rows_at in zip(files, groups):
        empty_dim = embs.shape[1] if len(embs) else dim
        sets = []
        for frame in range(1, last + 1):
            idx = rows_at.get(frame)
            if idx:
                boxes = [records[i].bbox() for i in idx]
                scores = np.array([records[i].conf for i in idx])
                sets.append(PromptDetections(boxes, embs[idx], scores))
            else:
                sets.append(PromptDetections.empty(empty_dim))
        per_file.append(sets)
    return dict(enumerate(zip(*per_file), start=1))
