import argparse
import io
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from macsort.cli import _add_config_flags, _build_parser, _overrides_from_args, main
from macsort.config import RunConfig, build_config, config_key
from macsort.mot_io import MotRecord, read_embeddings, read_mot_lines, write_detections, write_embeddings
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

    def test_bad_config_file_value(self, synth_seq, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("fixed_w_aaw=abc\n")
        argv = ["track", str(synth_seq), "--config", str(cfg)]
        self._one_config_error_line(capsys, synth_seq, argv)


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
