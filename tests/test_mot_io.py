import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from macsort.errors import (
    BadMagic,
    InputError,
    MissingGeneralFile,
    NonPositiveBox,
    ParseError,
    SidecarMismatch,
    TruncatedBody,
)
from macsort.geometry import BBox
from macsort.mot_io import (
    MotRecord,
    MotTable,
    _parse_line,
    by_frame,
    read_embeddings,
    read_mot_lines,
    read_prompt_dump_all,
    write_detections,
    write_embeddings,
    write_mot,
)
from macsort.prompt_filter import SHORT_WINDOW_FRAMES


class TestMotCsv:
    def test_parse_canonical_line(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text("1,1,100,50,20,40,0.9,-1,-1,-1\n")
        table = read_mot_lines(p)
        assert by_frame(table.frame)[1] == {1: slice(0, 1)}
        rec = table[0]
        assert (rec.frame, rec.id) == (1, 1)
        assert (rec.left, rec.top, rec.width, rec.height) == (100, 50, 20, 40)
        assert rec.conf == 0.9

    def test_bbox_conversion(self):
        rec = MotRecord(1, 1, 100, 50, 20, 40, 0.9)
        box = rec.bbox()
        assert (box.u, box.v, box.w, box.h) == (110, 70, 20, 40)
        back = MotTable.from_uvwh(1, 1, [box], 0.9)[0]
        assert (back.left, back.top) == (100, 50)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("")
        table = read_mot_lines(p)
        assert len(table) == 0 and by_frame(table.frame)[1] == {}

    def test_wrong_column_count(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1,1,3,4,5\n")
        with pytest.raises(ParseError) as exc:
            read_mot_lines(p)
        assert "line 1" in str(exc.value)

    def test_non_numeric(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1,1,a,b,c,d,0.5,-1,-1,-1\n")
        with pytest.raises(ParseError):
            read_mot_lines(p)

    def test_nonpositive_box(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1,1,0,0,0,10,0.5,-1,-1,-1\n")
        with pytest.raises(NonPositiveBox):
            read_mot_lines(p)

    def test_frame_below_one(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("0,1,0,0,10,10,0.5,-1,-1,-1\n")
        with pytest.raises(ParseError):
            read_mot_lines(p)

    @pytest.mark.parametrize("column", range(2, 10))
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value(self, tmp_path, column, value):
        cols = "1,1,0,0,10,10,0.5,-1,-1,-1".split(",")
        cols[column] = value
        p = tmp_path / "bad.txt"
        p.write_text("1,1,0,0,10,10,0.5,-1,-1,-1\n" + ",".join(cols) + "\n")
        with pytest.raises(ParseError, match=r"bad\.txt line 2: non-finite"):
            read_mot_lines(p)

    @pytest.mark.parametrize("conf", ["1.7", "-0.1"])
    def test_detection_confidence_outside_unit_interval(self, tmp_path, conf):
        p = tmp_path / "det.txt"
        p.write_text(f"1,-1,0,0,10,10,0.5,-1,-1,-1\n\n2,-1,0,0,10,10,{conf},-1,-1,-1\n")
        with pytest.raises(ParseError, match=r"det\.txt line 3: detection confidence"):
            read_mot_lines(p)

    def test_result_confidence_unrestricted(self, tmp_path):
        # only detection rows (id -1) carry a [0, 1] confidence
        p = tmp_path / "res.txt"
        p.write_text("1,4,0,0,10,10,1.7,-1,-1,-1\n")
        assert read_mot_lines(p)[0].conf == 1.7

    def test_nine_column_file(self, tmp_path):
        p = tmp_path / "nine.txt"
        p.write_text("2,5,1,2,3,4,0.5,-1,-1\n")
        rec = read_mot_lines(p)[0]
        assert rec.z == -1.0

    def test_write_read_write_idempotent(self, tmp_path, rng):
        records = [
            MotRecord(
                frame=int(f),
                id=int(i),
                left=round(float(rng.uniform(0, 500)), 2),
                top=round(float(rng.uniform(0, 500)), 2),
                width=round(float(rng.uniform(1, 100)), 2),
                height=round(float(rng.uniform(1, 100)), 2),
                conf=round(float(rng.uniform(0, 1)), 4),
            )
            for f in rng.integers(1, 20, 30)
            for i in [rng.integers(1, 9)]
        ]
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        write_mot(records, p1)
        write_mot(read_mot_lines(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_write_sorts_frames(self, tmp_path):
        records = [
            MotRecord(3, 1, 0, 0, 5, 5, 1.0),
            MotRecord(1, 1, 0, 0, 5, 5, 1.0),
        ]
        p = tmp_path / "out.txt"
        write_mot(records, p)
        assert [r.frame for r in read_mot_lines(p)] == [1, 3]


class TestEmbeddings:
    def test_round_trip_bytes(self, tmp_path, rng):
        embs = rng.standard_normal((100, 128)).astype(np.float32)
        p1, p2 = tmp_path / "a.emb", tmp_path / "b.emb"
        write_embeddings(embs, p1)
        write_embeddings(read_embeddings(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_values_survive(self, tmp_path):
        embs = np.array([[1.5, -2.25], [0.0, 4.0]])
        p = tmp_path / "e.emb"
        write_embeddings(embs, p)
        assert np.array_equal(read_embeddings(p), embs)

    def test_single_row_dim_one(self, tmp_path):
        p = tmp_path / "one.emb"
        write_embeddings(np.array([[3.0]]), p)
        got = read_embeddings(p)
        assert got.shape == (1, 1) and got[0, 0] == 3.0

    def test_empty_rows(self, tmp_path):
        p = tmp_path / "zero.emb"
        write_embeddings(np.zeros((0, 7)), p)
        assert read_embeddings(p).shape == (0, 7)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.emb"
        p.write_bytes(b"NOPE" + b"\x00" * 12)
        with pytest.raises(BadMagic):
            read_embeddings(p)

    def test_truncated_body(self, tmp_path):
        p = tmp_path / "trunc.emb"
        write_embeddings(np.ones((4, 8)), p)
        data = p.read_bytes()
        p.write_bytes(data[:-5])
        with pytest.raises(TruncatedBody):
            read_embeddings(p)


def _write_prompt(seq_dir, stem, rows, embs):
    seq_dir.mkdir(parents=True, exist_ok=True)
    write_detections(
        seq_dir / f"{stem}.txt", seq_dir / f"{stem}.emb", rows, np.asarray(embs)
    )


class TestPromptDump:
    def test_general_only(self, tmp_path):
        rows = [MotRecord(1, -1, 0, 0, 10, 10, 0.8)]
        _write_prompt(tmp_path, "general", rows, [[1.0, 0.0]])
        general, include, exclude = read_prompt_dump_all(tmp_path)[1]
        assert len(general) == 1
        assert len(include) == 0 and len(exclude) == 0

    def test_all_three_present(self, tmp_path):
        rows = [MotRecord(1, -1, 0, 0, 10, 10, 0.8)]
        for stem in ("general", "include", "exclude"):
            _write_prompt(tmp_path, stem, rows, [[1.0, 0.0]])
        triple = read_prompt_dump_all(tmp_path)[1]
        assert all(len(s) == 1 for s in triple)

    def test_missing_general(self, tmp_path):
        with pytest.raises(MissingGeneralFile):
            read_prompt_dump_all(tmp_path)[1]

    def test_sidecar_mismatch(self, tmp_path):
        rows = [MotRecord(1, -1, 0, 0, 10, 10, 0.8)] * 2
        with pytest.raises(SidecarMismatch):
            _write_prompt(tmp_path, "general", rows, [[1.0, 0.0]])
        # bypass the checked writer to produce a corrupt pair on disk
        with open(tmp_path / "general.txt", "w") as fh:
            fh.write("1,-1,0.00,0.00,10.00,10.00,0.8000,-1,-1,-1\n" * 2)
        write_embeddings(np.ones((1, 2)), tmp_path / "general.emb")
        with pytest.raises(SidecarMismatch):
            read_prompt_dump_all(tmp_path)[1]

    def test_threshold_drops_rows(self, tmp_path):
        rows = [
            MotRecord(1, -1, 0, 0, 10, 10, 0.10),
            MotRecord(1, -1, 30, 0, 10, 10, 0.90),
        ]
        _write_prompt(tmp_path, "general", rows, [[1.0, 0.0], [0.0, 1.0]])
        general, _, _ = read_prompt_dump_all(tmp_path, detection_threshold=0.2)[1]
        assert len(general) == 1
        assert general.scores[0] == pytest.approx(0.9)
        assert np.allclose(general.features[0], [0.0, 1.0])

    def test_dump_all_covers_gap_frames(self, tmp_path):
        rows = [
            MotRecord(1, -1, 0, 0, 10, 10, 0.8),
            MotRecord(3, -1, 0, 0, 10, 10, 0.8),
        ]
        _write_prompt(tmp_path, "general", rows, [[1.0, 0.0], [0.0, 1.0]])
        dump = read_prompt_dump_all(tmp_path)
        assert sorted(dump) == [1, 2, 3]
        assert len(dump[2][0]) == 0


THRESHOLD = 0.2
# at, just below and above the detection threshold, and the interval ends
CONFS = [0.0, 0.1, 0.1999, 0.2, 0.2001, 0.5, 1.0]

prompt_rows = st.lists(
    st.tuples(
        st.integers(1, 8),  # frame; files are written unsorted
        st.integers(0, 40),  # left
        st.integers(1, 20),  # width
        st.sampled_from(CONFS),
    ),
    max_size=25,
)


def _select_frame_oracle(stem_path, frame, dim):
    """Brute-force selection of one frame's rows from one prompt file."""
    if not stem_path.with_suffix(".txt").exists():
        return [], np.zeros((0, dim)), []
    records = read_mot_lines(stem_path.with_suffix(".txt"))
    embs = read_embeddings(stem_path.with_suffix(".emb"))
    idx = [
        i for i, rec in enumerate(records)
        if rec.frame == frame and rec.conf >= THRESHOLD
    ]
    empty_dim = embs.shape[1] if len(embs) else dim
    feats = embs[idx] if idx else np.zeros((0, empty_dim))
    return [records[i].bbox() for i in idx], feats, [records[i].conf for i in idx]


class TestPromptDumpOracle:
    @settings(max_examples=80, deadline=None)
    @given(
        general=prompt_rows,
        include=st.one_of(st.none(), prompt_rows),
        exclude=st.one_of(st.none(), prompt_rows),
        dim=st.integers(1, 3),
    )
    def test_matches_per_frame_scan(self, general, include, exclude, dim):
        with tempfile.TemporaryDirectory() as tmp:
            seq = Path(tmp)
            frames = set()
            for stem, rows in (("general", general), ("include", include), ("exclude", exclude)):
                if rows is None:  # absent file
                    continue
                records = [MotRecord(f, -1, left, 0, w, 10, c) for f, left, w, c in rows]
                embs = np.arange(len(rows) * dim, dtype=float).reshape(len(rows), dim)
                _write_prompt(seq, stem, records, embs)
                frames.update(f for f, *_ in rows)

            dump = read_prompt_dump_all(seq, THRESHOLD)

            # frames 1..last, less each frame without rows that follows
            # SHORT_WINDOW_FRAMES such frames (frame 0 counts as one with rows)
            with_rows = frames | {0}
            assert sorted(dump) == [
                f for f in range(1, max(frames, default=0) + 1)
                if any(f - k in with_rows for k in range(SHORT_WINDOW_FRAMES + 1))
            ]
            general_dim = dim if general else 1
            for frame, triple in dump.items():
                for stem, got in zip(("general", "include", "exclude"), triple):
                    boxes, feats, scores = _select_frame_oracle(seq / stem, frame, general_dim)
                    assert got.boxes.tolist() == [[b.u, b.v, b.w, b.h] for b in boxes]
                    assert got.features.shape == feats.shape
                    assert np.array_equal(got.features, feats)
                    assert got.scores.tolist() == scores


_CELLS = ["1", "-1", "0", "3", "2.5", "-0.5", "0.9", "1.7", "nan", "inf", "1e309", "", " ", "x"]


def _mot_files():
    """CSV-ish lines of 7 to 11 cells mixed with lines of raw bytes."""
    cell = st.one_of(st.sampled_from(_CELLS), st.text("0123456789.-+e ", max_size=5))
    csv_line = st.lists(cell, min_size=7, max_size=11).map(lambda c: ",".join(c).encode())
    line = st.one_of(csv_line, csv_line, st.binary(max_size=12))
    return st.lists(line, max_size=6).map(b"\n".join)


@st.composite
def _sidecars(draw):
    """Whole or cut EMB1-like headers with any dim and row count, and a body
    that is either the declared size or arbitrary bytes."""
    magic = draw(st.one_of(st.just(b"EMB1"), st.binary(max_size=4)))
    dim = draw(st.one_of(st.integers(-2, 4), st.integers(-(2**31), 2**31 - 1)))
    rows = draw(st.one_of(st.integers(-2, 4), st.integers(-(2**63), 2**63 - 1)))
    header = magic + struct.pack("<i", dim) + struct.pack("<q", rows)
    header = header[: draw(st.integers(0, len(header)))] if draw(st.booleans()) else header
    size = rows * dim * 4
    if 0 <= size <= 256 and draw(st.booleans()):
        body = draw(st.binary(min_size=size, max_size=size))
    else:
        body = draw(st.binary(max_size=64))
    return header + body


class TestReaderFuzz:
    """Any bytes give a value or an InputError, never another exception."""

    @settings(max_examples=300, deadline=None)
    @given(_mot_files())
    @example(b"1,-1,0,0,10,10,0.9,-1,-1\n\xff\n")
    @example(b"1,-1,0,0,10,10,0.9,-1,-1\r2,-1,0,0,10,10,\xe2\x80,-1,-1")
    def test_read_mot_lines(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "fuzz.txt"
            p.write_bytes(data)
            try:
                records = read_mot_lines(p)
            except InputError as exc:
                assert str(p) in str(exc)
                return
        for rec in records:
            assert rec.frame >= 1 and rec.width > 0 and rec.height > 0
            assert all(map(math.isfinite, (rec.left, rec.top, rec.conf, rec.x, rec.y, rec.z)))
            assert rec.id != -1 or 0.0 <= rec.conf <= 1.0

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_sidecars(), st.binary(max_size=40)))
    @example(b"EMB1" + struct.pack("<i", 2**31 - 1) + struct.pack("<q", 0))
    def test_read_embeddings(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "fuzz.emb"
            p.write_bytes(data)
            try:
                embs = read_embeddings(p)
            except InputError as exc:
                assert str(p) in str(exc)
                return
        dim, rows = struct.unpack("<i", data[4:8])[0], struct.unpack("<q", data[8:16])[0]
        assert embs.shape == (rows, dim) and embs.dtype == np.float64
        assert np.isfinite(embs).all()


class TestInt64Bound:
    @pytest.mark.parametrize(
        "frame, obj_id",
        [("99999999999999999999", "1"), ("9223372036854775808", "1"),
         ("1", "9223372036854775808"), ("1", "-9223372036854775809")],
    )
    def test_frame_or_id_beyond_int64(self, tmp_path, frame, obj_id):
        p = tmp_path / "big.txt"
        p.write_text(f"1,1,0,0,10,10,0.5,-1,-1,-1\n{frame},{obj_id},0,0,10,10,0.5,-1,-1,-1\n")
        with pytest.raises(ParseError, match=r"big\.txt line 2: frame or id outside the int64 range"):
            read_mot_lines(p)

    def test_int64_extremes_are_read(self, tmp_path):
        p = tmp_path / "edge.txt"
        p.write_text("9223372036854775807,-9223372036854775808,0,0,10,10,0.5,-1,-1,-1\n")
        table = read_mot_lines(p)
        assert table.frame.tolist() == [2**63 - 1] and table.id.tolist() == [-(2**63)]


# -- the per-line reader and per-record writer the columnar ones replaced, kept
# -- as their oracles


def _line_loop_reader(path):
    records = []
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                if "\ufffd" in line:
                    raise ParseError(f"line {lineno}: not UTF-8 text")
                records.append(_parse_line(line, lineno))
            except (ParseError, NonPositiveBox) as exc:
                raise type(exc)(f"{path} {exc}") from exc
    return records


def center_record(frame: int, obj_id: int, box: BBox, conf: float) -> MotRecord:
    """The MotRecord of a center box: left = u - w/2, top = v - h/2."""
    return MotRecord(frame, obj_id, box.u - box.w / 2, box.v - box.h / 2, box.w, box.h, conf)


def format_record(rec: MotRecord) -> str:
    return (
        f"{rec.frame},{rec.id},{rec.left:.2f},{rec.top:.2f},"
        f"{rec.width:.2f},{rec.height:.2f},{rec.conf:.4f},"
        f"{int(rec.x)},{int(rec.y)},{int(rec.z)}"
    )


def _read_outcome(reader, path):
    """Dtype, shape and raw bytes of each column of what ``reader`` reads,
    so that equal means bit-equal (-0.0 included), or the error raised."""
    try:
        table = MotTable.from_records(reader(path))
    except InputError as exc:
        return type(exc), str(exc)
    return [(col.dtype.str, col.shape, col.tobytes()) for col in vars(table).values()]


_ODD_INTS = ["+3", "1_0", "٣", "0012", "７"]  # accepted by int()
_ODD_FLOATS = ["1_0.5", "+2.5", "-0.0", "١٠", "2.675", "1e-400", "5.", ".5"]
_BAD_INTS = ["0", "-1", "9223372036854775808", "99999999999999999999",
             "-9223372036854775809", "1.0", "", "x", "1\x00", "\ufffd"]
_BAD_FLOATS = ["nan", "inf", "-inf", "1e309", "x", "", "0x10", "1e", "2.5\x00"]
_PADS = [" ", "\t", "\x0b", "\x1c", "\x1f", "\x85", "\xa0", "\u2028", "\u3000"]


@st.composite
def _mot_text(draw):
    """MOT CSV bytes: valid rows in 9 or 10 columns, with per-file odds of
    odd but valid spellings, whitespace padding, bad values, wrong column
    counts, blank lines, any newline convention and non-UTF-8 bytes."""
    odd, pad, bad = (draw(st.integers(0, 2)) == 0 for _ in range(3))
    width = draw(st.sampled_from([9, 10, None]))  # None: mixed per line
    text = ""
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 4)) == 0:
            line = draw(st.sampled_from(["", " ", "\t", "\x1c", "\x85 "]))
        else:
            cols = [str(draw(st.integers(1, 30))), draw(st.sampled_from(["-1", "-1", "4"]))]
            cols += [draw(st.sampled_from(["0", "12.5", "-3.25", "100", "0.015"])) for _ in "lt"]
            cols += [draw(st.sampled_from(["10", "0.5", "24.75", "3"])) for _ in "wh"]
            cols.append(draw(st.sampled_from(["0.9", "0", "1", "0.1234", "1.7"])))
            n_xyz = (width or draw(st.sampled_from([9, 10]))) - 7
            cols += [draw(st.sampled_from(["-1", "-1.5", "2.7", "1e300"])) for _ in range(n_xyz)]
            i = draw(st.integers(0, len(cols) - 1))
            if odd:
                cols[i] = draw(st.sampled_from(_ODD_INTS if i < 2 else _ODD_FLOATS))
            if bad and draw(st.booleans()):
                cols[i] = draw(st.sampled_from(_BAD_INTS if i < 2 else _BAD_FLOATS))
            if pad:
                cols[i] = draw(st.sampled_from(_PADS)) + cols[i] + draw(st.sampled_from(_PADS))
            if bad and draw(st.integers(0, 3)) == 0:
                cols = cols[:-1] if draw(st.booleans()) else cols + ["-1"]
            line = ",".join(cols)
        text += line + draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    data = text.encode()
    if bad and draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xe2\x80", b"\xc3"])) + data[at:]
    return data


class TestColumnarReaderOracle:
    """read_mot_lines gives bit-equal columns to the per-line loop, or the
    same error type and message."""

    @settings(max_examples=400, deadline=None)
    @given(_mot_text())
    @example(b"1,-1,0,0,10,10,0.9,-1,-1,\x1c-1\n2,-1,0,0,10,10,0.9,-1,-1,-1\n")
    @example(b"1,-1,0,0,10,10,0.9,-1,-1,\x85-1\r\n\r2,4,0,0,10,10,1.7,-1,-1\n")
    @example(b"1,-1,0,0,10,10,0.9,-1,-1\n2,-1,0,0,10,10,0.9,-1,-1,-1\n")
    @example(b"1_0,-1,-0.0,+1,\xd9\xa1,10,0.9,2.7,-1.5,1e300\n")
    @example(b"1,-1,0,0,10,10,0.9,-1,-1,-1\n99999999999999999999,-1,0,0,10,10,0.9,-1,-1,-1\n")
    @example(b"1,-1,0,0,10,10,0.9,-1,-1,-1\n2,-1,1e309,0,10,10,0.9,-1,-1,-1\n")
    @example(b"1,-1,0,0,10,10,0.9,-1,-1,-1\n2,-1,0,0,10,10,nan,-1,-1,-1\n")
    @example(b"1,-1,0,0,10,10,0.9,-1,-1,-1\n2,-1,0,0,\xef\xbf\xbd,10,0.9,-1,-1,-1\n")
    @example(b"1,-1,0,0,10,10,0.9,-1,-1,-1\n2,-1,0,0,10,10,0.9,-1,-1,\xff\n")
    def test_equals_line_loop(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "t.txt"
            p.write_bytes(data)
            assert _read_outcome(read_mot_lines, p) == _read_outcome(_line_loop_reader, p)

    def test_table_reads_as_records(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("2,-1,1,2,3,4,0.5,-1,-1\n1,7,5,6,7,8,0.25,1,2,3\n")
        table = read_mot_lines(p)
        records = _line_loop_reader(p)
        assert list(table) == records
        assert [table[i] for i in range(len(table))] == records
        assert table[-1] == records[-1]


# values at and around two-decimal ties, signed zeros, and x/y/z that int()
# truncates or prints in full
_TIE_FLOATS = st.one_of(
    st.integers(-10**6, 10**6).map(lambda k: k / 1000),  # .xx5 among them
    st.sampled_from([0.0, -0.0, 0.125, -0.125, 2.675, 1.005, 0.015, -0.005, 1e-9, -1e-9]),
    st.floats(-1e4, 1e4, allow_nan=False),
)
_XYZ = st.one_of(st.sampled_from([-1.0, -0.0, -0.5, 0.999, 2.7, -2.7, 1e300, -1e300]),
                 st.floats(-1e20, 1e20, allow_nan=False))
_records = st.lists(
    st.builds(
        MotRecord, st.integers(1, 40), st.integers(-1, 9), _TIE_FLOATS, _TIE_FLOATS,
        _TIE_FLOATS, _TIE_FLOATS, st.floats(0, 1), _XYZ, _XYZ, _XYZ,
    ),
    max_size=30,
)


class TestColumnarWriterOracle:
    """The columnar writers give the bytes of the per-record formatter."""

    @settings(max_examples=200, deadline=None)
    @given(_records)
    def test_write_mot_and_detections(self, records):
        want = "".join(format_record(r) + "\n" for r in sorted(records, key=lambda r: r.frame))
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "out.txt"
            for given_as in (records, MotTable.from_records(records)):
                write_mot(given_as, p)
                assert p.read_text(encoding="utf-8") == want
                write_detections(p, Path(tmp) / "out.emb", given_as, np.zeros((len(records), 1)))
                assert p.read_text(encoding="utf-8") == "".join(
                    format_record(r) + "\n" for r in records
                )

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(_TIE_FLOATS, _TIE_FLOATS, st.floats(1e-3, 1e3), st.floats(1e-3, 1e3)),
                    max_size=30))
    def test_center_boxes_write_left_as_bbox(self, rows):
        boxes = [BBox(*row) for row in rows]
        table = MotTable.from_uvwh(3, -1, np.array(rows).reshape(-1, 4), 0.5)
        assert list(table) == [center_record(3, -1, b, 0.5) for b in boxes]
        assert table.uvwh().tobytes() == np.array(
            [(r.bbox().u, r.bbox().v, r.bbox().w, r.bbox().h) for r in table]
        ).reshape(-1, 4).tobytes()

    def test_filter_rewrites_left_from_center(self, tmp_path):
        # left 0.005 prints as 0.01 but (l + w/2) - w/2 as 0.00 when w = 3,
        # and 0.015 as 0.01 against 0.02 when w = 0.5: the filtered rows are
        # written from the box centre, not copied
        seq = tmp_path / "seq"
        seq.mkdir()
        (seq / "general.txt").write_text(
            "1,-1,0.005,1.005,3,3,0.9,-1,-1,-1\n1,-1,0.015,2.675,0.5,0.25,0.8,-1,-1,-1\n"
        )
        write_embeddings(np.eye(2), seq / "general.emb")
        from macsort.cli import main
        assert main(["filter", str(seq)]) == 0
        general = read_mot_lines(seq / "general.txt")
        want = "".join(
            format_record(center_record(r.frame, -1, r.bbox(), r.conf)) + "\n"
            for r in general
        )
        assert (seq / "filtered.txt").read_text() == want
        assert want != "".join(format_record(r) + "\n" for r in general)
