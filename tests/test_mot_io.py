import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from macsort.errors import (
    BadMagic,
    MissingGeneralFile,
    NonPositiveBox,
    ParseError,
    SidecarMismatch,
    TruncatedBody,
)
from macsort.mot_io import (
    MotRecord,
    read_embeddings,
    read_mot,
    read_mot_lines,
    read_prompt_dump_all,
    write_detections,
    write_embeddings,
    write_mot,
)


class TestMotCsv:
    def test_parse_canonical_line(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text("1,1,100,50,20,40,0.9,-1,-1,-1\n")
        grouped = read_mot(p)
        rec = grouped[1][0]
        assert (rec.frame, rec.id) == (1, 1)
        assert (rec.left, rec.top, rec.width, rec.height) == (100, 50, 20, 40)
        assert rec.conf == 0.9

    def test_bbox_conversion(self):
        rec = MotRecord(1, 1, 100, 50, 20, 40, 0.9)
        box = rec.bbox()
        assert (box.u, box.v, box.w, box.h) == (110, 70, 20, 40)
        back = MotRecord.from_bbox(1, 1, box, 0.9)
        assert (back.left, back.top) == (100, 50)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("")
        assert read_mot(p) == {}

    def test_wrong_column_count(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1,1,3,4,5\n")
        with pytest.raises(ParseError) as exc:
            read_mot(p)
        assert "line 1" in str(exc.value)

    def test_non_numeric(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1,1,a,b,c,d,0.5,-1,-1,-1\n")
        with pytest.raises(ParseError):
            read_mot(p)

    def test_nonpositive_box(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1,1,0,0,0,10,0.5,-1,-1,-1\n")
        with pytest.raises(NonPositiveBox):
            read_mot(p)

    def test_frame_below_one(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("0,1,0,0,10,10,0.5,-1,-1,-1\n")
        with pytest.raises(ParseError):
            read_mot(p)

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
        rec = read_mot(p)[2][0]
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
        write_mot(read_mot(p1), p2)
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

            assert sorted(dump) == list(range(1, max(frames, default=0) + 1))
            general_dim = dim if general else 1
            for frame, triple in dump.items():
                for stem, got in zip(("general", "include", "exclude"), triple):
                    boxes, feats, scores = _select_frame_oracle(seq / stem, frame, general_dim)
                    assert got.boxes == boxes
                    assert got.features.shape == feats.shape
                    assert np.array_equal(got.features, feats)
                    assert got.scores.tolist() == scores
