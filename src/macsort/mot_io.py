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
from functools import cached_property
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .errors import (
    BadMagic,
    MissingGeneralFile,
    NonFiniteEmbedding,
    NonPositiveBox,
    ParseError,
    SidecarMismatch,
    TruncatedBody,
)
from .geometry import BBox, first_unheld_box, uvwh_array
from .prompt_filter import SHORT_WINDOW_FRAMES, PromptDetections, TpodConfig

EMB_MAGIC = b"EMB1"
DETECTION_ID = -1
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
_LINE = "%d,%d,%.2f,%.2f,%.2f,%.2f,%.4f,%d,%d,%d\n"  # one line in canonical form


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


@dataclass(eq=False)
class MotTable:
    """MOT CSV rows as columns, rows in file order. Indexing and iteration
    give MotRecord rows, so a table also reads as a list of records; the
    records are built once, on first use, so the columns are not to be
    changed in place after that."""

    frame: np.ndarray  # (n,) int64
    id: np.ndarray  # (n,) int64
    ltwh: np.ndarray  # (n, 4) left, top, width, height
    conf: np.ndarray  # (n,)
    xyz: np.ndarray  # (n, 3)

    @classmethod
    def from_records(cls, records) -> "MotTable":
        """A table of MotRecord rows; a table is returned as it is."""
        if isinstance(records, MotTable):
            return records
        ints = np.array([(r.frame, r.id) for r in records], dtype=np.int64).reshape(-1, 2)
        vals = np.array([(r.left, r.top, r.width, r.height, r.conf, r.x, r.y, r.z)
                         for r in records], dtype=np.float64).reshape(-1, 8)
        return cls(ints[:, 0], ints[:, 1], vals[:, :4], vals[:, 4], vals[:, 5:])

    @classmethod
    def from_uvwh(cls, frame, ids, boxes, conf) -> "MotTable":
        """Rows of center boxes, given as (u, v, w, h) rows or BBox, with
        left = u - w/2 and top = v - h/2 as iou_matrix computes them, and x, y, z
        = -1. ``frame``, ``ids`` and ``conf`` may be scalars."""
        uvwh = uvwh_array(boxes)
        frame, ids, conf = (np.broadcast_to(np.asarray(col, dtype=dtype), len(uvwh)).copy()
                            for col, dtype in ((frame, np.int64), (ids, np.int64), (conf, float)))
        ltwh = np.concatenate([uvwh[:, :2] - uvwh[:, 2:] / 2.0, uvwh[:, 2:]], axis=1)
        return cls(frame, ids, ltwh, conf, np.full((len(uvwh), 3), -1.0))

    def __len__(self) -> int:
        return len(self.frame)

    @cached_property
    def _records(self) -> list[MotRecord]:
        cols = self.frame.tolist(), self.id.tolist(), self.ltwh.tolist(), self.conf.tolist()
        return [MotRecord(frame, obj_id, *ltwh, conf, *xyz)
                for frame, obj_id, ltwh, conf, xyz in zip(*cols, self.xyz.tolist())]

    def __getitem__(self, i: int) -> MotRecord:
        return self._records[i]

    def __iter__(self):
        return iter(self._records)

    def take(self, rows) -> "MotTable":
        """The rows selected by an index array, boolean mask or slice."""
        return MotTable(self.frame[rows], self.id[rows], self.ltwh[rows], self.conf[rows],
                        self.xyz[rows])

    def uvwh(self) -> np.ndarray:
        """(n, 4) center boxes (left + w/2, top + h/2, w, h), as MotRecord.bbox."""
        wh = self.ltwh[:, 2:]
        return np.concatenate([self.ltwh[:, :2] + wh / 2.0, wh], axis=1)

    def to_text(self) -> str:
        """The rows in canonical form, in table order: boxes with two
        decimals, confidence with four, x/y/z truncated by int()."""
        xyz = ([int(v) for v in col] for col in self.xyz.T.tolist())
        cols = self.frame.tolist(), self.id.tolist(), *self.ltwh.T.tolist(), self.conf.tolist()
        return (_LINE * len(self)) % tuple(chain.from_iterable(zip(*cols, *xyz)))


def by_frame(frame: np.ndarray) -> tuple[slice | np.ndarray, dict[int, slice]]:
    """The stable row order of a frame column, and each frame's rows as a
    slice of the rows in that order, frames ascending. The order is a slice
    when the rows already are in frame order, so taking it copies nothing."""
    sorted_ = (frame[1:] >= frame[:-1]).all()
    order = slice(None) if sorted_ else np.argsort(frame, kind="stable")
    frames, starts = np.unique(frame[order], return_index=True)
    ends = np.append(starts[1:], len(frame))
    bounds = zip(frames.tolist(), starts.tolist(), ends.tolist())
    return order, {f: slice(a, b) for f, a, b in bounds}


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
    if not (INT64_MIN <= frame <= INT64_MAX and INT64_MIN <= obj_id <= INT64_MAX):
        raise ParseError(f"line {lineno}: frame or id outside the int64 range")
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


def _parse_columns(lines: list[str]) -> MotTable | None:
    """All lines at once, one numpy conversion per column; None when any
    line is malformed, so that the line loop can name it."""
    rows = [line for line in map(str.strip, lines) if line]
    if not rows:
        return MotTable.from_records([])
    k = rows[0].count(",") + 1
    if k not in (9, 10) or set(map(str.count, rows, repeat(","))) != {k - 1}:
        return None
    cells = ",".join(rows).split(",")
    try:
        frame = np.array(cells[0::k], dtype=np.int64)
        ids = np.array(cells[1::k], dtype=np.int64)
        vals = np.array([cells[j::k] for j in range(2, k)], dtype=np.float64).T
    except (ValueError, OverflowError):  # numpy is stricter than int/float
        return None
    if k == 9:
        vals = np.concatenate([vals, np.full((len(rows), 1), -1.0)], axis=1)
    ltwh, conf = vals[:, :4], vals[:, 4]
    valid = (np.isfinite(vals).all() and (frame >= 1).all() and (ltwh[:, 2:] > 0).all()
             and ((ids != DETECTION_ID) | ((conf >= 0.0) & (conf <= 1.0))).all())
    return MotTable(frame, ids, ltwh, conf, vals[:, 5:]) if valid else None


def read_mot_lines(path: str | Path) -> MotTable:
    """Rows in file order (needed for sidecar row alignment).

    Raises ParseError or NonPositiveBox naming the file and line.
    """
    # bytes that are not UTF-8 read as U+FFFD, so the error can name the line
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        text = fh.read()
    lines = text.split("\n")  # not splitlines(): that also breaks at \x1c, \x85, ...
    if "\ufffd" not in text:
        table = _parse_columns(lines)
        if table is not None:
            return table
    records = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            if "\ufffd" in line:
                raise ParseError(f"line {lineno}: not UTF-8 text")
            records.append(_parse_line(line, lineno))
        except (ParseError, NonPositiveBox) as exc:
            raise type(exc)(f"{path} {exc}") from exc
    return MotTable.from_records(records)


def write_mot(records, path: str | Path) -> None:
    """Write a table or records frame-sorted (stable within a frame) in
    canonical form."""
    table = MotTable.from_records(records)
    table = table.take(by_frame(table.frame)[0])
    Path(path).write_text(table.to_text(), encoding="utf-8")


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
    """Read an EMB1 sidecar into a (R, D) float64 array.

    Raises NonFiniteEmbedding naming the first (1-based) row that holds a
    NaN or an infinity.
    """
    data = Path(path).read_bytes()
    if len(data) < 16 or data[:4] != EMB_MAGIC:
        raise BadMagic(f"{path}: not an EMB1 sidecar")
    dim = struct.unpack("<i", data[4:8])[0]
    rows = struct.unpack("<q", data[8:16])[0]
    if dim < 1 or rows < 0:
        raise TruncatedBody(f"{path}: bad header dim={dim}, rows={rows}")
    expected = rows * dim * 4
    if len(data) - 16 != expected:
        raise TruncatedBody(f"{path}: body has {len(data) - 16} bytes, expected {expected}")
    # read in place: slicing the body off would copy it
    arr = np.frombuffer(data, dtype="<f4", offset=16).reshape(rows, dim).astype(np.float64)
    bad = ~np.isfinite(arr).all(axis=1)
    if bad.any():
        raise NonFiniteEmbedding(f"{path}: row {int(np.argmax(bad)) + 1} is not finite")
    return arr


def write_detections(
    csv_path: str | Path,
    emb_path: str | Path,
    records,
    embeddings: np.ndarray,
) -> None:
    """Write an aligned detections CSV + sidecar pair.

    Records (a MotTable or a list of MotRecord) must already be in the
    exact row order of the embedding matrix; both are written as given
    (records additionally must be frame-sorted for the CSV to be canonical).
    """
    if len(records) != len(embeddings):
        raise SidecarMismatch(
            f"{csv_path}: {len(records)} records vs {len(embeddings)} embedding rows"
        )
    Path(csv_path).write_text(MotTable.from_records(records).to_text(), encoding="utf-8")
    write_embeddings(np.asarray(embeddings), emb_path)


def check_boxes(table: MotTable, path: str | Path) -> None:
    """Raise ParseError naming ``path`` and the first row whose box float64
    cannot hold (geometry.first_unheld_box)."""
    with np.errstate(over="ignore"):  # left + w/2 may overflow; the check names it
        bad = first_unheld_box(table.uvwh())
    if bad is not None:
        left, top, w, h = table.ltwh[bad].tolist()
        raise ParseError(f"{path} row {bad + 1}: box left={left}, top={top}, w={w}, h={h} "
                         "overflows float64 or has no extent at its position")


def _load_prompt_file(
    seq_dir: Path, stem: str, required: bool
) -> tuple[MotTable, np.ndarray] | None:
    csv_path = seq_dir / f"{stem}.txt"
    emb_path = seq_dir / f"{stem}.emb"
    if not csv_path.exists():
        if required:
            raise MissingGeneralFile(f"{csv_path} not found")
        return None
    table = read_mot_lines(csv_path)
    bad = np.flatnonzero((table.conf < 0.0) | (table.conf > 1.0))
    if len(bad):  # id -1 rows are checked as they are parsed
        raise ParseError(
            f"{csv_path} row {bad[0] + 1}: detection confidence "
            f"{float(table.conf[bad[0]])} outside [0, 1]"
        )
    check_boxes(table, csv_path)
    if not emb_path.exists():
        raise SidecarMismatch(f"{emb_path} missing for {csv_path}")
    embs = read_embeddings(emb_path)
    if len(table) != len(embs):
        raise SidecarMismatch(
            f"{csv_path}: {len(table)} rows vs {len(embs)} embedding rows"
        )
    return table, embs


def read_prompt_dump_all(
    seq_dir: str | Path, detection_threshold: float = TpodConfig.detection_threshold
) -> dict[int, tuple[PromptDetections, PromptDetections, PromptDetections]]:
    """Load a whole prompt dump as general/include/exclude sets per frame.

    Frames run 1..max frame seen in any prompt file; frames with no rows
    get empty sets so that downstream memory windows still advance, up to
    SHORT_WINDOW_FRAMES of them in a row: later ones are left out. Absent
    include/exclude files mean empty prompt sets; scores below the
    detection threshold are dropped. Prompt files that hold rows must share
    the general file's embedding dimension (SidecarMismatch otherwise).
    """
    seq_dir = Path(seq_dir)
    general = _load_prompt_file(seq_dir, "general", required=True)
    dim = general[1].shape[1] if len(general[1]) else 1
    files = [general]
    for stem in ("include", "exclude"):
        table, embs = _load_prompt_file(seq_dir, stem, required=False) or (
            MotTable.from_records([]), np.zeros((0, dim))
        )
        if len(embs) and len(general[1]) and embs.shape[1] != dim:
            raise SidecarMismatch(
                f"{seq_dir / stem}.emb: embedding dimension {embs.shape[1]} "
                f"differs from general's {dim}"
            )
        files.append((table, embs))
    with_rows = np.unique(np.concatenate([table.frame for table, _ in files])).tolist()
    last = with_rows[-1] if with_rows else 0
    # a frame is left out after SHORT_WINDOW_FRAMES frames without rows (from
    # frame 0 on): those emptied the short memory band, so it changes nothing
    frames = sorted({f + k for f in [0, *with_rows] for k in range(SHORT_WINDOW_FRAMES + 1)
                     if 1 <= f + k <= last})

    per_file = []
    for table, embs in files:
        empty = PromptDetections.empty(embs.shape[1] if len(embs) else dim)
        kept = table.conf >= detection_threshold
        sets = detection_sets(table.take(kept), embs[kept])
        per_file.append([sets.get(frame, empty) for frame in frames])
    return dict(zip(frames, zip(*per_file)))


def detection_sets(table: MotTable, embs: np.ndarray) -> dict[int, PromptDetections]:
    """One detection table per frame that has rows, frames ascending, file
    order within a frame; ``embs`` holds the rows' embeddings. The tables
    view the rows of a frame-sorted file rather than copy them."""
    order, frames = by_frame(table.frame)
    table, embs = table.take(order), embs[order]
    uvwh = table.uvwh()
    return {
        frame: PromptDetections(uvwh[rows], embs[rows], table.conf[rows])
        for frame, rows in frames.items()
    }
