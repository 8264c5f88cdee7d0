import argparse
import io
import json
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from macsort.cli import _add_config_flags, _build_parser, _overrides_from_args, _worker_count, main
from macsort.config import RunConfig, build_config, config_key
from macsort.errors import InputError
from macsort.mot_io import (
    MotRecord,
    MotTable,
    read_embeddings,
    read_mot_lines,
    read_prompt_dump_all,
    write_detections,
    write_embeddings,
    write_mot,
)
from macsort.prompt_filter import MemoryBank, PromptDetections, tpod_frame
from macsort.synth import ScenarioSpec, write_spec

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def synth_seq(tmp_path):
    """A synthesized sequence directory with gt + general detections."""
    spec_path = tmp_path / "case.spec"
    write_spec(ScenarioSpec(seed=5, n_objects=3, n_frames=12, detection_noise_px=0.3), spec_path)
    out = tmp_path / "seq"
    assert main(["synth", str(spec_path), str(out)]) == 0
    return out


def _prompt_dump(tmp_path):
    seq = tmp_path / "dump"
    seq.mkdir()
    rows_g = [
        MotRecord(1, -1, 0, 0, 10, 10, 0.9),
        MotRecord(1, -1, 100, 0, 10, 10, 0.9),
        MotRecord(1, -1, 200, 0, 10, 10, 0.9),
    ]
    embs_g = np.eye(3, 4)
    write_detections(seq / "general.txt", seq / "general.emb", rows_g, embs_g)
    write_detections(
        seq / "include.txt", seq / "include.emb",
        [MotRecord(1, -1, 1, 0, 10, 10, 0.9)], np.eye(1, 4),
    )
    write_detections(
        seq / "exclude.txt", seq / "exclude.emb",
        [MotRecord(1, -1, 101, 0, 10, 10, 0.9)], np.eye(1, 4),
    )
    return seq


class TestSynthCommand:
    def test_writes_sequence_files(self, synth_seq):
        for name in ("gt.txt", "general.txt", "general.emb", "scenario.spec"):
            assert (synth_seq / name).exists()
        assert len(read_mot_lines(synth_seq / "gt.txt")) == 36

    def test_deterministic(self, tmp_path, synth_seq, capsys):
        out2 = tmp_path / "seq2"
        assert main(["synth", str(synth_seq / "scenario.spec"), str(out2)]) == 0
        for name in ("gt.txt", "general.txt", "general.emb"):
            assert (synth_seq / name).read_bytes() == (out2 / name).read_bytes()

    def test_bad_spec_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.spec"
        bad.write_text("n_objects=0\n")
        assert main(["synth", str(bad), str(tmp_path / "x")]) == 2
        assert "SpecError" in capsys.readouterr().err


class TestFilterCommand:
    def test_passthrough_without_prompts(self, synth_seq, capsys):
        assert main(["filter", str(synth_seq)]) == 0
        out = capsys.readouterr().out
        assert "dropped=0" in out
        filtered = read_mot_lines(synth_seq / "filtered.txt")
        general = read_mot_lines(synth_seq / "general.txt")
        assert len(filtered) == len(general)

    def test_include_exclude_filtering(self, tmp_path, capsys):
        seq = _prompt_dump(tmp_path)
        assert main(["filter", str(seq)]) == 0
        out = capsys.readouterr().out
        assert "ie_tps=1" in out and "dropped=1" in out
        filtered = read_mot_lines(seq / "filtered.txt")
        # exclude-hit box at u=100 removed; include TP + cold-start box kept
        assert [r.left for r in filtered] == [0.0, 200.0]
        embs = read_embeddings(seq / "filtered.emb")
        assert embs.shape == (2, 4)

    def test_one_summary_line_per_sequence(self, synth_seq, capsys):
        assert main(["filter", str(synth_seq)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"[filter] {synth_seq} frames=12 general=")
        rows = len(read_mot_lines(synth_seq / "filtered.txt"))
        assert lines[0].endswith(f"final={rows}")

    @pytest.mark.parametrize("column", [2, 4])  # left, width
    def test_non_finite_value_exits_2(self, synth_seq, capsys, column):
        lines = (synth_seq / "general.txt").read_text().splitlines()
        cols = lines[1].split(",")
        cols[column] = "nan"
        lines[1] = ",".join(cols)
        (synth_seq / "general.txt").write_text("\n".join(lines) + "\n")
        assert main(["filter", str(synth_seq)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"ParseError: {synth_seq / 'general.txt'} line 2: ")
        assert not (synth_seq / "filtered.txt").exists()

    def test_missing_general_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "nothing"
        empty.mkdir()
        assert main(["filter", str(empty)]) == 2
        assert "MissingGeneralFile" in capsys.readouterr().err


class TestConfidenceRule:
    @pytest.mark.parametrize("command", ["filter", "track"])
    def test_confidence_above_one_exits_2(self, synth_seq, capsys, command):
        lines = (synth_seq / "general.txt").read_text().splitlines()
        cols = lines[2].split(",")
        cols[6] = "1.7"
        lines[2] = ",".join(cols)
        (synth_seq / "general.txt").write_text("\n".join(lines) + "\n")
        assert main([command, str(synth_seq)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"ParseError: {synth_seq / 'general.txt'} line 3: ")


class TestInputContract:
    """Each malformed input exits 2 with one "ErrorName: detail" line."""

    def _one_error_line(self, capsys, argv, prefix):
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(prefix), err

    @pytest.mark.parametrize("argv", [["filter"], ["track", "--detections", "general"]])
    def test_non_finite_embedding(self, synth_seq, capsys, argv):
        emb = synth_seq / "general.emb"
        embs = read_embeddings(emb)
        embs[1::2] = np.nan
        write_embeddings(embs, emb)
        self._one_error_line(
            capsys, [argv[0], str(synth_seq), *argv[1:]], f"NonFiniteEmbedding: {emb}: row 2 "
        )
        assert not (synth_seq / "filtered.emb").exists()
        assert not (synth_seq / "results.txt").exists()

    @pytest.mark.parametrize("command", ["filter", "track"])
    def test_confidence_outside_unit_on_any_detection_row(self, synth_seq, capsys, command):
        general = synth_seq / "general.txt"
        lines = general.read_text().splitlines()
        cols = lines[2].split(",")
        cols[1], cols[6] = "7", "1.5"
        lines[2] = ",".join(cols)
        general.write_text("\n".join(lines) + "\n")
        self._one_error_line(capsys, [command, str(synth_seq)], f"ParseError: {general} row 3: ")

    def test_result_files_keep_any_confidence(self, synth_seq, capsys):
        gt = synth_seq / "gt.txt"
        gt.write_text(gt.read_text().replace(",1.0000,", ",1.5000,", 1))
        assert main(["eval", str(gt), str(gt)]) == 0

    @pytest.mark.parametrize("which", ["gt", "results", "detections"])
    def test_eval_repeated_frame_id(self, synth_seq, capsys, which):
        gt = synth_seq / "gt.txt"
        results = synth_seq / "results.txt"
        results.write_bytes(gt.read_bytes())
        if which == "detections":
            results = synth_seq / "general.txt"
        else:
            bad = gt if which == "gt" else results
            lines = bad.read_text().splitlines()
            bad.write_text("\n".join([lines[0], *lines]) + "\n")
        bad = gt if which == "gt" else results
        frame, obj_id = bad.read_text().split(",")[:2]
        self._one_error_line(
            capsys, ["eval", str(gt), str(results)],
            f"ParseError: {bad}: duplicate id {obj_id} in frame {frame}",
        )

    def test_eval_names_the_first_repeat(self, tmp_path, capsys):
        # rows in random frame order, several (frame, id) pairs repeated: the
        # repeat named is the first met adding rows frame by frame, frames
        # ascending and file order within a frame
        rng = np.random.default_rng(3)
        gt, results = tmp_path / "gt.txt", tmp_path / "results.txt"
        gt.write_text("1,1,0,0,10,10,1,-1,-1,-1\n")
        for _ in range(5):
            rows = [MotRecord(int(f), int(i), 0, 0, 10, 10, 1.0)
                    for f, i in zip(rng.integers(1, 5, 12), rng.integers(1, 4, 12))]
            results.write_text(MotTable.from_records(rows).to_text())
            seen, frame, obj_id = set(), None, None
            for r in sorted(rows, key=lambda r: r.frame):
                if (r.frame, r.id) in seen:
                    frame, obj_id = r.frame, r.id
                    break
                seen.add((r.frame, r.id))
            self._one_error_line(capsys, ["eval", str(gt), str(results)],
                                 f"ParseError: {results}: duplicate id {obj_id} in frame {frame}")

    @pytest.mark.parametrize("stem", ["include", "exclude"])
    def test_prompt_embedding_dimension_differs(self, tmp_path, capsys, stem):
        # the prompt file's only row is in a frame with no general row, so
        # no frame ever combines the two dimensions
        seq = _prompt_dump(tmp_path)
        write_detections(
            seq / f"{stem}.txt", seq / f"{stem}.emb",
            [MotRecord(2, -1, 0, 0, 10, 10, 0.9)], np.eye(1, 8),
        )
        self._one_error_line(
            capsys, ["filter", str(seq)],
            f"SidecarMismatch: {seq / stem}.emb: embedding dimension 8 differs from general's 4",
        )
        assert not (seq / "filtered.txt").exists()

    @pytest.mark.parametrize("command", [["filter"], ["track", "--detections", "general"]])
    @pytest.mark.parametrize("column, value", [(0, "99999999999999999999"), (1, "-9223372036854775809")])
    def test_frame_or_id_beyond_int64(self, synth_seq, capsys, command, column, value):
        general = synth_seq / "general.txt"
        lines = general.read_text().splitlines()
        cols = lines[4].split(",")
        cols[column] = value
        lines[4] = ",".join(cols)
        general.write_text("\n".join(lines) + "\n")
        self._one_error_line(
            capsys, [command[0], str(synth_seq), *command[1:]],
            f"ParseError: {general} line 5: frame or id outside the int64 range",
        )

    @pytest.mark.parametrize(
        "line",
        ["embedding_swap_frame=abc", "speed_px=nan", "field_w=nan", "box_size_px=inf"],
    )
    def test_synth_spec_value(self, tmp_path, capsys, line):
        spec = tmp_path / "case.spec"
        spec.write_text(f"seed=1\n{line}\n")
        out = tmp_path / "x"
        self._one_error_line(capsys, ["synth", str(spec), str(out)], "SpecError: ")
        assert not out.exists()


    @pytest.mark.parametrize(
        "lines, detail",
        [("speed_px=1e308\nn_frames=5", "overflow"),
         ("motion=circular\nspeed_px=1e308\nn_frames=400", "overflow"),
         ("box_size_px=1e-300", "box size"),
         ("speed_px=1e200\nbox_size_px=1e200\nn_frames=5", "gt.txt row 1 (frame 1): "),
         ("speed_px=1e300\nn_frames=5", "gt.txt row 5 (frame 2): ")],
    )
    def test_synth_writes_no_box_its_readers_reject(self, tmp_path, capsys, lines, detail):
        spec = tmp_path / "case.spec"
        spec.write_text(f"seed=1\n{lines}\n")
        out = tmp_path / "x"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy overflow warning fails the test
            assert main(["synth", str(spec), str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("SpecError: ") and detail in err[0], err
        assert not out.exists()

    @pytest.mark.parametrize("box", ["-5e199,-5e199,1e200,1e200",  # w*h overflows
                                     "1e300,84.00,24.00,24.00"])  # no extent at u = 1e300
    @pytest.mark.parametrize("command", [["filter"], ["track", "--detections", "general"],
                                         ["eval"]])
    def test_box_float64_cannot_hold(self, tmp_path, capsys, box, command):
        seq = tmp_path / "seq"
        seq.mkdir()
        path = seq / ("gt.txt" if command == ["eval"] else "general.txt")
        obj_id = 1 if command == ["eval"] else -1
        path.write_text(f"1,{obj_id},0.00,0.00,10.00,10.00,0.9000,-1,-1,-1\n"
                        f"2,{obj_id},{box},0.9000,-1,-1,-1\n")
        write_embeddings(np.eye(2), seq / "general.emb")
        argv = ([*command, str(path), str(path)] if command == ["eval"]
                else [command[0], str(seq), *command[1:]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning fails the test
            self._one_error_line(capsys, argv, f"ParseError: {path} row 2: ")
        assert sorted(p.name for p in seq.iterdir()) == sorted({path.name, "general.emb"})

    @pytest.mark.parametrize("theta", ["1e-9", "1e-7"])
    def test_theta_whose_cosine_rounds_to_one(self, synth_seq, capsys, theta):
        self._one_error_line(capsys, ["track", str(synth_seq), "--theta-deg", theta],
                             "ConfigError: theta_deg")
        assert not (synth_seq / "results.txt").exists()


class TestOSErrorExits2:
    """An OS error other than a missing file prints one line, not a traceback."""

    def _one_error_line(self, capsys, argv, name):
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"{name}: "), err

    def test_eval_directory(self, tmp_path, capsys):
        self._one_error_line(capsys, ["eval", str(tmp_path), str(tmp_path)], "IsADirectoryError")

    def test_synth_spec_directory(self, tmp_path, capsys):
        argv = ["synth", str(tmp_path), str(tmp_path / "out")]
        self._one_error_line(capsys, argv, "IsADirectoryError")

    def test_config_directory(self, synth_seq, tmp_path, capsys):
        argv = ["track", str(synth_seq), "--config", str(tmp_path)]
        self._one_error_line(capsys, argv, "IsADirectoryError")

    def test_synth_out_dir_is_a_file(self, synth_seq, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        argv = ["synth", str(synth_seq / "scenario.spec"), str(taken)]
        self._one_error_line(capsys, argv, "FileExistsError")


class TestTrackCommand:
    def test_track_synth_sequence(self, synth_seq, capsys):
        assert main(["track", str(synth_seq)]) == 0
        assert "detections=general" in capsys.readouterr().out
        rows = read_mot_lines(synth_seq / "results.txt")
        assert {r.id for r in rows} == {1, 2, 3}
        assert max(r.frame for r in rows) == 12

    def test_auto_prefers_filtered(self, synth_seq, capsys):
        assert main(["filter", str(synth_seq)]) == 0
        capsys.readouterr()
        assert main(["track", str(synth_seq)]) == 0
        assert "detections=filtered" in capsys.readouterr().out

    def test_empty_detection_file(self, tmp_path):
        seq = tmp_path / "empty"
        seq.mkdir()
        (seq / "general.txt").write_text("")
        write_embeddings(np.zeros((0, 4)), seq / "general.emb")
        assert main(["track", str(seq)]) == 0
        assert (seq / "results.txt").read_text() == ""

    def test_ablation_flag_runs(self, synth_seq):
        assert main(["track", str(synth_seq), "--disable-appearance"]) == 0
        assert (synth_seq / "results.txt").exists()

    def test_missing_detections_exits_2(self, tmp_path, capsys):
        seq = tmp_path / "none"
        seq.mkdir()
        assert main(["track", str(seq)]) == 2


class TestEvalCommand:
    def test_gt_vs_gt_perfect(self, synth_seq, capsys):
        gt = str(synth_seq / "gt.txt")
        assert main(["eval", gt, gt]) == 0
        out = capsys.readouterr().out
        assert "HOTA   1.0000" in out
        report = json.loads((synth_seq / "gt.txt.metrics.json").read_text())
        assert report["mota"] == 1.0 and report["idf1"] == 1.0

    def test_pipeline_scoring(self, synth_seq, capsys):
        assert main(["track", str(synth_seq)]) == 0
        json_out = synth_seq / "metrics.json"
        assert main([
            "eval", str(synth_seq / "gt.txt"), str(synth_seq / "results.txt"),
            "--json-out", str(json_out),
        ]) == 0
        report = json.loads(json_out.read_text())
        assert report["id_switches"] == 0
        assert report["mota"] > 0.9

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["eval", str(tmp_path / "a.txt"), str(tmp_path / "b.txt")]) == 2


class TestParseCaptionsCommand:
    def test_valid_directory(self, tmp_path, capsys):
        ann = {
            "class_name": "car",
            "caption": "Track white headlight cars while excluding red taillight cars",
        }
        (tmp_path / "cars.json").write_text(json.dumps(ann))
        assert main(["parse-captions", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "0 errors" in out
        assert "general='cars'" in out

    def test_malformed_caption_listed(self, tmp_path, capsys):
        (tmp_path / "bad.json").write_text(
            json.dumps({"class_name": "duck", "caption": "Follow the ducks"})
        )
        assert main(["parse-captions", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert "bad.json" in captured.out
        assert "CaptionGrammarError" in captured.out

    def test_empty_directory_warns_exit_0(self, tmp_path, capsys):
        assert main(["parse-captions", str(tmp_path)]) == 0
        assert "warning" in capsys.readouterr().out

    def test_missing_directory_exits_2(self, tmp_path, capsys):
        assert main(["parse-captions", str(tmp_path / "absent")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("FileNotFound: "), err
        assert str(tmp_path / "absent") in err[0]

    def test_file_for_directory_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cars.json"
        path.write_text("{}")
        assert main(["parse-captions", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("NotADirectoryError: "), err
        assert str(path) in err[0]


class TestConfigPlumbing:
    def test_config_file_flag(self, synth_seq, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("min_hits=1\nlambda=0.1\n")
        assert main(["track", str(synth_seq), "--config", str(cfg)]) == 0

    def test_bad_config_exits_2(self, synth_seq, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nonsense=1\n")
        assert main(["track", str(synth_seq), "--config", str(cfg)]) == 2
        assert "ConfigError" in capsys.readouterr().err

    def test_one_worker_unless_env_sets_count(self, monkeypatch):
        monkeypatch.delenv("MACSORT_THREADS", raising=False)
        assert _worker_count() == 1
        monkeypatch.setenv("MACSORT_THREADS", "3")
        assert _worker_count() == 3
        monkeypatch.setenv("MACSORT_THREADS", "three")
        with pytest.raises(InputError):
            _worker_count()

    def test_threads_env_does_not_change_output(self, tmp_path, monkeypatch):
        spec_path = tmp_path / "case.spec"
        write_spec(ScenarioSpec(seed=11, n_objects=2, n_frames=10), spec_path)
        outs = []
        for threads in ("1", "8"):
            seq = tmp_path / f"seq{threads}"
            assert main(["synth", str(spec_path), str(seq)]) == 0
            monkeypatch.setenv("MACSORT_THREADS", threads)
            assert main(["track", str(seq)]) == 0
            outs.append((seq / "results.txt").read_bytes())
        assert outs[0] == outs[1]


class TestPathConfig:
    def test_input_dir_base(self, synth_seq, capsys):
        root = synth_seq.parent
        assert main(["track", synth_seq.name, "--input-dir", str(root)]) == 0
        assert (synth_seq / "results.txt").exists()

    def test_annotation_file_prompts_printed(self, synth_seq, tmp_path, capsys):
        ann = tmp_path / "cars.json"
        ann.write_text(json.dumps({
            "class_name": "car",
            "caption": "Track white headlight cars while excluding red taillight cars",
        }))
        assert main(["filter", str(synth_seq), "--annotation-file", str(ann)]) == 0
        out = capsys.readouterr().out
        assert "general='cars'" in out and "exclude='red taillight'" in out

    def test_output_dir_redirect(self, synth_seq, tmp_path):
        out = tmp_path / "elsewhere"
        assert main(["track", str(synth_seq), "--output-dir", str(out)]) == 0
        assert (out / "results.txt").exists()


class TestConfigValuesExit2:
    def _one_config_error_line(self, capsys, seq, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ConfigError: "), err
        assert not (seq / "filtered.txt").exists()
        assert not (seq / "results.txt").exists()

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("filter", "--overlap-threshold", "1.5"),
            ("filter", "--overlap-threshold", "1.0"),
            ("track", "--lambda", "nan"),
            ("track", "--lambda", "inf"),
            ("track", "--fixed-w-aaw", "nan"),
            # a frame's summed finite costs overflowed to inf in linear_assignment
            ("track", "--lambda", "1e308"),
            ("track", "--lambda", "1.000001e6"),
            # either frozen weight negative
            ("track", "--fixed-w-aaw", "-0.5"),
            ("track", "--fixed-w-aaw", "2.5"),
            ("filter", "--detection-threshold", "nan"),
            ("filter", "--detection-threshold", "1.5"),
            ("track", "--max-age", "-5"),
            ("filter", "--kappa1", "-1"),
            ("filter", "--kappa2", "0"),
            ("track", "--iou-threshold", "nan"),
            ("track", "--min-hits", "1.5"),
        ],
    )
    def test_bad_flag_value(self, synth_seq, capsys, command, flag, value):
        self._one_config_error_line(capsys, synth_seq, [command, str(synth_seq), flag, value])

    def test_huge_negative_fixed_w_aaw(self, synth_seq, capsys):
        # one token: argparse reads "-1e308" after a space as an option, not a number
        argv = ["track", str(synth_seq), "--fixed-w-aaw=-1e308"]
        self._one_config_error_line(capsys, synth_seq, argv)

    def test_largest_lambda_runs(self, synth_seq):
        assert main(["track", str(synth_seq), "--detections", "general", "--lambda", "1e6"]) == 0
        assert (synth_seq / "results.txt").exists()

    def test_bad_config_file_value(self, synth_seq, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("fixed_w_aaw=abc\n")
        argv = ["track", str(synth_seq), "--config", str(cfg)]
        self._one_config_error_line(capsys, synth_seq, argv)


def _corrupt_line(path, lineno):
    """Put a byte that is not UTF-8 at the end of line ``lineno`` (1-based)."""
    lines = path.read_bytes().splitlines(keepends=True)
    lines[lineno - 1] = lines[lineno - 1].rstrip(b"\n") + b"\xff\n"
    path.write_bytes(b"".join(lines))


class TestNonUtf8InputExits2:
    def _one_error_line(self, capsys, argv, name):
        assert main(argv) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"{name}: "), err
        return err[0], captured.out

    @pytest.mark.parametrize("command", ["filter", "track", "eval"])
    def test_mot_csv(self, synth_seq, capsys, command):
        name = "gt.txt" if command == "eval" else "general.txt"
        _corrupt_line(synth_seq / name, 3)
        if command == "eval":
            argv = ["eval", str(synth_seq / "gt.txt"), str(synth_seq / "gt.txt")]
        else:
            argv = [command, str(synth_seq)]
        line, _ = self._one_error_line(capsys, argv, "ParseError")
        assert line.startswith(f"ParseError: {synth_seq / name} line 3: ")

    def test_config_file(self, synth_seq, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"min_hits=1\nlambda=0.1\xff\n")
        argv = ["track", str(synth_seq), "--config", str(cfg)]
        line, _ = self._one_error_line(capsys, argv, "ConfigError")
        assert str(cfg) in line
        assert not (synth_seq / "results.txt").exists()

    def test_synth_spec(self, tmp_path, capsys):
        spec = tmp_path / "case.spec"
        spec.write_bytes(b"seed=1\n\xffn_objects=2\n")
        argv = ["synth", str(spec), str(tmp_path / "x")]
        line, _ = self._one_error_line(capsys, argv, "SpecError")
        assert str(spec) in line
        assert not (tmp_path / "x").exists()

    def test_annotation_json(self, tmp_path, capsys):
        good = {"class_name": "car", "caption": "Track cars"}
        (tmp_path / "a.json").write_bytes(b'{"class_name": "car\xff", "caption": "Track cars"}')
        (tmp_path / "b.json").write_text(json.dumps(good))
        (tmp_path / "c.json").write_bytes(b"\xfe\xff" + json.dumps(good).encode())
        argv = ["parse-captions", str(tmp_path)]
        _, out = self._one_error_line(capsys, argv, "CaptionValidation")
        errors = [line for line in out.splitlines() if line.startswith("ERROR")]
        assert [line.split(":")[0] for line in errors] == ["ERROR a.json", "ERROR c.json"]
        assert all(": JsonError: " in line for line in errors)
        assert "OK b.json" in out


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class TestBrokenPipe:
    def test_closed_stdout_exits_quietly(self, synth_seq, capsys, monkeypatch):
        gt = str(synth_seq / "gt.txt")
        monkeypatch.setattr(sys, "stdout", _ClosedPipe())
        assert main(["eval", gt, gt]) == 1
        assert sys.stdout.name == os.devnull
        print("later output")
        sys.stdout.close()
        assert capsys.readouterr().err == ""

    def test_real_pipe_closed_by_reader(self, synth_seq):
        gt = str(synth_seq / "gt.txt")
        path = [str(SRC), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        proc = subprocess.Popen(
            [sys.executable, "-m", "macsort.cli", "eval", gt, gt],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        proc.stdout.close()  # the reader goes away before any output
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == ""


# the override flags, in declaration order, plus --config
FLAGS = [
    "--config", "--lambda", "--theta-deg", "--iou-gate", "--max-age", "--min-hits",
    "--ema-alpha", "--disable-appearance", "--disable-direction", "--fixed-w-aaw",
    "--kappa1", "--kappa2", "--detection-threshold", "--overlap-threshold",
    "--no-cold-start-passthrough", "--memory-from-ie-only", "--iou-threshold",
    "--hota-sweep", "--input-dir", "--output-dir", "--annotation-file",
]
# a non-default value of every field, as a config file writes it
NON_DEFAULT = {
    "lam": "0.7", "theta_deg": "30", "iou_gate": "0.3", "max_age": "4", "min_hits": "2",
    "ema_alpha": "0.5", "use_appearance": "false", "use_direction": "false",
    "fixed_w_aaw": "1.25", "kappa1": "5", "kappa2": "2", "detection_threshold": "0.4",
    "overlap_threshold": "0.25", "cold_start_passthrough": "false",
    "memory_from_ie_only": "true", "iou_threshold": "0.6", "hota_sweep": "true",
    "input_dir": "in", "output_dir": "out", "annotation_file": "a.json",
}


def _config_flags():
    parser = argparse.ArgumentParser(add_help=False)
    _add_config_flags(parser)
    return parser, {opt: a.dest for a in parser._actions for opt in a.option_strings}


class TestConfigSchema:
    def test_flag_list_is_pinned(self):
        assert list(_config_flags()[1]) == FLAGS

    def test_every_field_has_one_flag_and_one_key(self, tmp_path):
        parser, dests = _config_flags()
        assert sorted(NON_DEFAULT) == sorted(f.name for f in fields(RunConfig))
        for name, raw in NON_DEFAULT.items():
            flags = [opt for opt, dest in dests.items() if dest == name]
            assert len(flags) == 1, (name, flags)
            cfg_file = tmp_path / f"{name}.cfg"
            cfg_file.write_text(f"{config_key(name)}={raw}\n")
            from_file = getattr(build_config(cfg_file), name)
            assert from_file != getattr(RunConfig(), name)
            argv = [flags[0]] if isinstance(from_file, bool) else [flags[0], raw]
            args = parser.parse_args(argv)
            assert _overrides_from_args(args) == {name: getattr(args, name)}
            from_flag = getattr(build_config(None, _overrides_from_args(args)), name)
            assert from_flag == from_file, name

    def test_absent_flags_override_nothing(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("lambda=0.7\nuse_direction=false\n")
        args = _build_parser().parse_args(["track", "seq", "--config", str(cfg_file)])
        assert _overrides_from_args(args) == {}
        cfg = build_config(args.config, _overrides_from_args(args))
        assert cfg.lam == 0.7 and cfg.use_direction is False


def _run_cli(*argv):
    path = [str(SRC), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run([sys.executable, "-m", "macsort.cli", *argv], capture_output=True,
                          text=True, env=env, timeout=60)


def _sparse_dump(seq, rng):
    """Prompt files with rows at 25 frames, gaps of up to 8 frames between
    them; include/exclude rows overlap some general rows, some frames
    have include or exclude rows only, and confidences straddle the
    detection threshold."""
    frames = np.cumsum(rng.integers(1, 9, 25))
    for stem, share in (("general", 0.9), ("include", 0.4), ("exclude", 0.3)):
        rows, embs = [], []
        for frame in frames[rng.random(len(frames)) < share]:
            for _ in range(rng.integers(1, 4)):
                left = float(rng.choice([0, 40, 80])) + rng.uniform(-3, 3)
                conf = float(rng.choice([0.1, 0.5, 0.9]))
                rows.append(MotRecord(int(frame), -1, round(left, 2), 0.0, 20.0, 20.0, conf))
                embs.append(rng.standard_normal(3))
        write_detections(seq / f"{stem}.txt", seq / f"{stem}.emb", rows, np.reshape(embs, (-1, 3)))


def _filter_every_frame(seq):
    """The filter run over every frame 1..last, as its report and files:
    the frames that read_prompt_dump_all leaves out are given empty sets."""
    dump = read_prompt_dump_all(seq, RunConfig().detection_threshold)
    last = max(dump)
    empty = tuple(PromptDetections.empty(s.dim) for s in dump[1])
    memory, kept, stats = MemoryBank(), [], []
    for frame in range(1, last + 1):
        res = tpod_frame(*dump.get(frame, empty), memory, frame, RunConfig().tpod_config())
        kept.append(res.final_tps)
        stats.append(res.stats)
    rows = PromptDetections.concat(*kept)
    frames = np.repeat(np.arange(1, last + 1), [len(s) for s in kept])
    table = MotTable.from_uvwh(frames, -1, rows.boxes, rows.scores)
    counts = " ".join(
        f"{name}={sum(getattr(s, f'n_{name}') for s in stats)}"
        for name in ("general", "ie_tps", "dropped", "rescued", "rejected")
    )
    return f"frames={last} {counts} final={len(table)}", table.to_text(), rows.features, len(dump)


class TestSparseFrames:
    """Frames without rows are skipped only where stepping them changes
    nothing, so outputs equal a run that steps every frame."""

    @pytest.mark.parametrize("seed", range(8))
    def test_filter_equals_stepping_every_frame(self, tmp_path, capsys, seed):
        seq = tmp_path / "seq"
        seq.mkdir()
        _sparse_dump(seq, np.random.default_rng(seed))
        report, text, features, n_stepped = _filter_every_frame(seq)
        assert main(["filter", str(seq)]) == 0
        assert capsys.readouterr().out == f"[filter] {seq} {report}\n"
        assert (seq / "filtered.txt").read_text() == text
        assert np.array_equal(read_embeddings(seq / "filtered.emb"),
                              features.astype(np.float32).astype(np.float64))
        assert n_stepped < int(report.split()[0].split("=")[1])  # some frames were left out

    def test_far_frame_finishes(self, tmp_path):
        seq = tmp_path / "seq"
        seq.mkdir()
        rows = [MotRecord(1, -1, 0, 0, 10, 10, 0.9), MotRecord(10**12, -1, 0, 0, 10, 10, 0.9)]
        write_detections(seq / "general.txt", seq / "general.emb", rows, np.eye(2))
        proc = _run_cli("filter", str(seq))
        assert proc.returncode == 0, proc.stderr
        assert f"frames={10**12} general=2 " in proc.stdout
        proc = _run_cli("track", str(seq), "--detections", "general")
        assert proc.returncode == 0, proc.stderr
        assert read_mot_lines(seq / "results.txt").frame.tolist() == [1]

    def test_far_frame_eval_finishes(self, tmp_path):
        rows = [MotRecord(1, 1, 0, 0, 10, 10, 1.0), MotRecord(10**12, 1, 0, 0, 10, 10, 1.0)]
        write_mot(rows, tmp_path / "gt.txt")
        proc = _run_cli("eval", str(tmp_path / "gt.txt"), str(tmp_path / "gt.txt"))
        assert proc.returncode == 0, proc.stderr
        report = json.loads((tmp_path / "gt.txt.metrics.json").read_text())
        assert report["tp"] == 2 and report["hota"] == 1.0
