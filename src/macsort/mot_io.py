"""Readers and writers for MOT-Challenge CSV files, binary embedding
sidecars, and per-prompt detection dumps.

Canonical CSV form: frame-sorted, one record per line, boxes with two
decimals, confidence with four; writing a file read in canonical form
reproduces it byte for byte.

Embedding sidecar layout (little-endian): 4-byte magic ``EMB1``, int32
dimension D, int64 row count R, then R*D float32 values; row i belongs to
the i-th non-blank line of the companion CSV. Embeddings are read as
float32, the width the sidecar stores.

The writers write WRITE_BLOCK_ROWS rows at a time, so that a file's text or
float32 body is never held whole.

Canonical text is built from digit arrays, not one float format per value,
and is byte for byte what the ``%`` template _LINE prints. Frame and id are
int64 magnitudes and a sign; x/y/z are truncated to int64, as int() does.
A box or confidence value x with d decimals prints the digits of q =
rint(s), s = fl(|x|·10^d), and a sign when x's sign bit is set (-0.001 is
"-0.00"). fl(|x|·10^d) is within 2^-52·s of the exact product, so rint(s)
can differ from the correct rounding of the exact product, which %.*f
prints, only when s lies that close to a half-way point; such cells (2.675,
k/8, confidences at k/20000) take their digits from "%.*f", and every other
cell is exact as computed. A block holding a value out of the arrays' range
(s >= 2^52, NaN or inf, x/y/z beyond int64, a frame or id of INT64_MIN) is
formatted by _LINE.
"""

from __future__ import annotations

import math
import os
import struct
import threading
import warnings
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain
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
from .prompt_filter import PromptDetections, TpodConfig

EMB_MAGIC = b"EMB1"
DETECTION_ID = -1
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
# catch_warnings swaps the process-wide filters: one parse at a time does so
_WARNINGS_LOCK = threading.Lock()
_LINE = "%d,%d,%.2f,%.2f,%.2f,%.2f,%.4f,%d,%d,%d\n"  # one line in canonical form
# _LINE's fields as digit arrays build them: decimals and end of each field
_DECIMALS = np.array([0, 0, 2, 2, 2, 2, 4, 0, 0, 0])
_VAL_SCALE = 10.0 ** _DECIMALS[2:7]  # of the box and confidence fields
_FIELD_END = np.array([ord(",")] * 9 + [ord("\n")], np.uint8)
WRITE_BLOCK_ROWS = 1024


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
        ltwh = np.array(uvwh_array(boxes))
        ltwh[:, :2] -= ltwh[:, 2:] / 2.0
        n = len(ltwh)  # np.full broadcasts a scalar and copies a column
        return cls(np.full(n, frame, np.int64), np.full(n, ids, np.int64), ltwh,
                   np.full(n, conf, np.float64), np.full((n, 3), -1.0))

    @classmethod
    def concat(cls, tables) -> "MotTable":
        """The rows of ``tables`` one table after another."""
        tables = [cls.from_records([]), *tables]
        return cls(*(np.concatenate([getattr(t, name) for t in tables])
                     for name in ("frame", "id", "ltwh", "conf", "xyz")))

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
        decimals, confidence with four, x/y/z truncated by int(). Built as
        digit arrays; a table holding a value out of their range is
        formatted by the _LINE template (see the module docstring)."""
        text = _digit_text(self)
        if text is not None:
            return text
        xyz = ([int(v) for v in col] for col in self.xyz.T.tolist())
        cols = self.frame.tolist(), self.id.tolist(), *self.ltwh.T.tolist(), self.conf.tolist()
        return (_LINE * len(self)) % tuple(chain.from_iterable(zip(*cols, *xyz)))


@cache
def _cell_template(digits: int) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """The chars and keep mask of a line's 10 cells of ``digits`` digits, and
    the slot of each digit, units first. A cell is a sign, the digits with a
    point slot before the last four and one before the last two, and the
    field's end: "-1234.56," has the digits 123456 with the second point
    kept. The template keeps a field's point and end; the sign and the
    digits are kept per row."""
    chars = np.zeros((10, digits + 4), np.uint8)
    keep = np.zeros(chars.shape, bool)
    chars[:, 0] = ord("-")
    chars[:, digits - 3] = chars[:, digits] = ord(".")
    keep[:, digits - 3], keep[:, digits] = _DECIMALS == 4, _DECIMALS == 2
    chars[:, -1], keep[:, -1] = _FIELD_END, True
    chars.flags.writeable = keep.flags.writeable = False  # shared by every call
    return chars, keep, [digits - j + (j < 4) + (j < 2) for j in range(digits)]


def _digit_text(table: MotTable) -> str | None:
    """``table``'s rows in canonical form, built as one (rows, 10 cells,
    chars) array and a keep mask, or None when a value is out of the
    arrays' range."""
    ints = np.column_stack([table.frame, table.id]).astype(np.int64)
    vals = np.column_stack([table.ltwh, table.conf]).astype(np.float64)
    xyz = np.asarray(table.xyz, np.float64)
    with np.errstate(over="ignore"):  # inf and NaN compare out of range
        scaled = np.abs(vals) * _VAL_SCALE
    if not ((scaled < 2.0**52).all() and (np.abs(xyz) < 2.0**63).all()
            and (ints != INT64_MIN).all()):
        return None
    q = np.rint(scaled).astype(np.int64)
    # within fl's error of a half-way point rint may round the other way
    # than the exact product does: such cells take %.*f's digits
    near = np.abs(scaled - np.floor(scaled) - 0.5) <= scaled * 2.0**-52
    for row, col in np.argwhere(near).tolist():
        text = "%.*f" % (int(_DECIMALS[col + 2]), abs(vals[row, col]))
        q[row, col] = int(text.replace(".", ""))
    whole = np.trunc(xyz).astype(np.int64)
    mag = np.column_stack([np.abs(ints), q, np.abs(whole)])
    top = int(mag.max(initial=0))
    if top < 2**31:
        mag = mag.astype(np.int32)  # its division is twice as fast
    template, always, slots = _cell_template(max(len(str(top)), 5))
    chars = np.empty((len(table), *template.shape), np.uint8)
    keep = np.empty(chars.shape, bool)
    chars[:], keep[:] = template, always
    keep[..., 0] = np.column_stack([ints < 0, np.signbit(vals), whole < 0])
    for j, slot in enumerate(slots):  # a leading zero only where decimals need it
        keep[..., slot] = (mag > 0) | (_DECIMALS >= j)
        rest = mag // 10
        chars[..., slot] = mag - rest * 10 + ord("0")
        mag = rest
    return chars[keep].tobytes().decode("ascii")


def frame_order(frame: np.ndarray) -> slice | np.ndarray:
    """The stable row order of a frame column: a slice, which copies nothing
    when taken, when the rows already are in frame order."""
    if (frame[1:] >= frame[:-1]).all():
        return slice(None)
    return np.argsort(frame, kind="stable")


def walk_frames(idle: Callable[[], bool], *frames: np.ndarray) -> Iterator[tuple]:
    """Frames 1..the last frame that has rows in any of ``frames``, each a
    frame-sorted frame column, as ``(frame, rows...)``: one slice of each
    column's rows at that frame. A frame without rows is left out while
    ``idle()`` is true, which the caller makes true when stepping such a
    frame would change nothing; it is asked once the frame before has been
    stepped. Frames below 1 are not walked."""
    given = np.unique(np.concatenate([np.zeros(0, np.int64), *frames]))
    given = given[np.searchsorted(given, 1):]
    slices = [map(slice, np.searchsorted(col, given).tolist(),
                  np.searchsorted(col, given, "right").tolist()) for col in frames]
    frame = 1
    for with_rows, *rows in zip(given.tolist(), *slices):
        while frame < with_rows and not idle():
            yield (frame, *[slice(0, 0)] * len(frames))
            frame += 1
        yield (with_rows, *rows)
        frame = with_rows + 1


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
    """All lines in one numpy parse; None when numpy declines any line, so
    that the line loop reads it or names it."""
    rows = [line for line in map(str.strip, lines) if line]
    if not rows:
        return MotTable.from_records([])
    k = rows[0].count(",") + 1
    if k not in (9, 10):
        return None
    dtype = [("frame", np.int64), ("id", np.int64), ("vals", np.float64, (k - 2,))]
    # loadtxt rejects a row with another column count and the spellings that
    # int()/float() take but it does not (1_0, non-ASCII digits); older numpy
    # only warns when it reads 1.5 into an int column, so that is an error here
    try:
        with _WARNINGS_LOCK, warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            parsed = np.loadtxt(rows, dtype=dtype, delimiter=",", comments=None, ndmin=1)
    except (ValueError, OverflowError, DeprecationWarning):
        return None
    vals = parsed["vals"]
    ltwh, conf = np.ascontiguousarray(vals[:, :4]), vals[:, 4].copy()
    xyz = np.full((len(rows), 3), -1.0)
    xyz[:, :k - 7] = vals[:, 5:]
    frame, ids = parsed["frame"].copy(), parsed["id"].copy()
    valid = (np.isfinite(vals).all() and (frame >= 1).all() and (ltwh[:, 2:] > 0).all()
             and ((ids != DETECTION_ID) | ((conf >= 0.0) & (conf <= 1.0))).all())
    return MotTable(frame, ids, ltwh, conf, xyz) if valid else None


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


def _write_text(table: MotTable, path: str | Path) -> None:
    """Write ``table.to_text()``, one block of rows at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, len(table), WRITE_BLOCK_ROWS):
            fh.write(table.take(slice(start, start + WRITE_BLOCK_ROWS)).to_text())


def write_mot(records, path: str | Path) -> None:
    """Write a table or records frame-sorted (stable within a frame) in
    canonical form."""
    table = MotTable.from_records(records)
    _write_text(table.take(frame_order(table.frame)), path)


def write_embeddings(embs: np.ndarray, path: str | Path, rows: np.ndarray | None = None) -> None:
    """Write a (R, D) array, or its ``rows`` (an index array) in that order,
    as an EMB1 sidecar (values stored as float32), gathering and converting
    one block of rows at a time."""
    arr = np.atleast_2d(np.asarray(embs))
    count, dim = arr.shape if rows is None else (len(rows), arr.shape[1])
    if dim < 1:
        raise ValueError("embedding dimension must be >= 1")
    with open(path, "wb") as fh:
        fh.write(EMB_MAGIC)
        fh.write(struct.pack("<i", dim))
        fh.write(struct.pack("<q", count))
        for start in range(0, count, WRITE_BLOCK_ROWS):
            block = slice(start, start + WRITE_BLOCK_ROWS)
            # its buffer, not a bytes copy of it; a float32 slice is not copied
            fh.write(np.ascontiguousarray(arr[block] if rows is None else arr[rows[block]],
                                          dtype="<f4"))


def read_embeddings(path: str | Path) -> np.ndarray:
    """Read an EMB1 sidecar into a (R, D) float32 array, writable and
    C-contiguous, read in place without a bytes copy of the body.

    Raises NonFiniteEmbedding naming the first (1-based) row that holds a
    NaN or an infinity.
    """
    with open(path, "rb") as fh:
        head = fh.read(16)
        if len(head) < 16 or head[:4] != EMB_MAGIC:
            raise BadMagic(f"{path}: not an EMB1 sidecar")
        dim, rows = struct.unpack("<iq", head[4:])
        if dim < 1 or rows < 0:
            raise TruncatedBody(f"{path}: bad header dim={dim}, rows={rows}")
        expected = rows * dim * 4
        size = os.fstat(fh.fileno()).st_size - 16
        if size != expected:
            raise TruncatedBody(f"{path}: body has {size} bytes, expected {expected}")
        body = np.empty((rows, dim), dtype="<f4")
        if (got := fh.readinto(body)) != expected:  # a shorter file than fstat saw
            raise TruncatedBody(f"{path}: body has {got} bytes, expected {expected}")
    bad = ~np.isfinite(body).all(axis=1)
    if bad.any():
        raise NonFiniteEmbedding(f"{path}: row {int(np.argmax(bad)) + 1} is not finite")
    return body


def write_detections(
    csv_path: str | Path,
    emb_path: str | Path,
    records,
    embeddings: np.ndarray,
    rows: np.ndarray | None = None,
) -> None:
    """Write an aligned detections CSV + sidecar pair.

    Records (a MotTable or a list of MotRecord) must already be in the
    exact row order of the embedding matrix, or of its ``rows`` when given
    (an index array, gathered a block at a time); both are written as given
    (records additionally must be frame-sorted for the CSV to be canonical).
    """
    n_embs = len(embeddings) if rows is None else len(rows)
    if len(records) != n_embs:
        raise SidecarMismatch(f"{csv_path}: {len(records)} records vs {n_embs} embedding rows")
    _write_text(MotTable.from_records(records), csv_path)
    write_embeddings(embeddings, emb_path, rows)


def _line_of(path: str | Path, row: int) -> int:
    """The 1-based file line of ``path``'s data row ``row`` (0-based), lines
    counted as read_mot_lines counts them: split at "\n", blank ones
    skipped. For error messages only: it reads the file again."""
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        lines = fh.read().split("\n")
    return [i for i, line in enumerate(lines, start=1) if line.strip()][row]


def check_boxes(table: MotTable, path: str | Path) -> None:
    """Raise ParseError naming ``path`` and the line of the first row whose
    box float64 cannot hold (geometry.first_unheld_box); ``table`` is
    ``path`` as read_mot_lines reads it."""
    with np.errstate(over="ignore"):  # left + w/2 may overflow; the check names it
        bad = first_unheld_box(table.uvwh())
    if bad is not None:
        left, top, w, h = table.ltwh[bad].tolist()
        raise ParseError(f"{path} line {_line_of(path, bad)}: box left={left}, top={top}, "
                         f"w={w}, h={h} overflows float64 or has no extent at its position")


def read_detections(seq_dir: Path, stem: str) -> tuple[np.ndarray, PromptDetections] | None:
    """``<stem>.txt`` in ``seq_dir`` and its ``.emb`` sidecar as a (frame
    column, PromptDetections) pair, rows in file order, or None when the CSV
    is absent. Raises ParseError or SidecarMismatch naming the file."""
    csv_path = seq_dir / f"{stem}.txt"
    emb_path = seq_dir / f"{stem}.emb"
    if not csv_path.exists():
        return None
    table = read_mot_lines(csv_path)
    bad = np.flatnonzero((table.conf < 0.0) | (table.conf > 1.0))
    if len(bad):  # id -1 rows are checked as they are parsed
        raise ParseError(
            f"{csv_path} line {_line_of(csv_path, bad[0])}: detection confidence "
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
    return table.frame, PromptDetections(table.uvwh(), embs, table.conf)


def read_prompt_dump_all(
    seq_dir: str | Path, detection_threshold: float = TpodConfig.detection_threshold
) -> tuple[int, tuple[tuple[np.ndarray, PromptDetections], ...]]:
    """Load a whole prompt dump as its last frame and the general, include
    and exclude rows, each a ``(frame column, PromptDetections)`` pair of
    the rows at or above the detection threshold, stably sorted by frame.

    The last frame is the largest frame of any row in any prompt file,
    whatever its confidence, or 0. An absent include/exclude file means no
    prompt rows. A file without rows takes the general file's embedding
    dimension, or 1 when that has none either. Prompt files that hold rows
    must share one embedding dimension (SidecarMismatch otherwise).
    """
    seq_dir = Path(seq_dir)
    files = {"general": read_detections(seq_dir, "general")}
    if files["general"] is None:
        raise MissingGeneralFile(f"{seq_dir / 'general.txt'} not found")
    for stem in ("include", "exclude"):
        files[stem] = read_detections(seq_dir, stem) or (np.zeros(0, np.int64),
                                                         PromptDetections.empty())
    dims = {stem: dets.dim for stem, (_, dets) in files.items() if len(dets)}
    first = next(iter(dims), None)
    for stem, dim in dims.items():
        if dim != dims[first]:
            raise SidecarMismatch(
                f"{seq_dir / stem}.emb: embedding dimension {dim} "
                f"differs from {first}'s {dims[first]}"
            )
    dim = dims.get("general", 1)
    last = max((int(frame.max()) for frame, _ in files.values() if len(frame)), default=0)

    sides = []
    for frame, dets in files.values():
        keep = dets.scores >= detection_threshold
        order = frame_order(frame[keep])
        # every row kept from a frame-sorted file: frame_order's slice views the columns
        rows = order if keep.all() else np.flatnonzero(keep)[order]
        sides.append((frame[rows], (dets if len(dets) else PromptDetections.empty(dim)).take(rows)))
    return last, tuple(sides)
