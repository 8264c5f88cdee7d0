import math
import re
import string
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import OTHER_LINE_BREAKS
from macsort.config import RunConfig, build_config, config_key
from macsort.errors import ConfigError, InputError


class TestBuildConfig:
    def test_defaults(self):
        cfg = build_config()
        assert cfg == RunConfig()
        assert cfg.lam == 0.2 and cfg.theta_deg == 45.0
        assert cfg.kappa1 == 9 and cfg.kappa2 == 3
        assert cfg.detection_threshold == 0.2 and cfg.iou_threshold == 0.5

    def test_file_values(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("lambda=0.5\ntheta_deg=60\nmin_hits=1\nhota_sweep=true\n")
        cfg = build_config(p)
        assert cfg.lam == 0.5
        assert cfg.theta_deg == 60.0
        assert cfg.min_hits == 1
        assert cfg.hota_sweep is True

    def test_flags_beat_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("lambda=0.5\n")
        cfg = build_config(p, {"lam": 0.9})
        assert cfg.lam == 0.9

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("warp=9\n")
        with pytest.raises(ConfigError):
            build_config(p)

    def test_unknown_override_key_rejected(self):
        with pytest.raises(ConfigError, match="^unknown config key 'warp'$"):
            build_config(overrides={"warp": 1})

    def test_duplicate_key_rejected(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("lambda=0.5\nlambda=0.7\n")
        with pytest.raises(ConfigError):
            build_config(p)

    def test_bad_bool(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("hota_sweep=maybe\n")
        with pytest.raises(ConfigError):
            build_config(p)

    def test_fixed_w_aaw_empty_means_none(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("fixed_w_aaw=\n")
        assert build_config(p).fixed_w_aaw is None
        p.write_text("fixed_w_aaw=2.0\n")
        assert build_config(p).fixed_w_aaw == 2.0

    def test_out_of_range_theta_rejected(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("theta_deg=120\n")
        with pytest.raises(ConfigError):
            build_config(p)

    def test_comments_ignored(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("# tuning for crowded scenes\nmax_age=50\n")
        assert build_config(p).max_age == 50

    @pytest.mark.parametrize("sep", OTHER_LINE_BREAKS, ids=ascii)
    def test_only_newline_ends_a_line(self, tmp_path, sep):
        p = tmp_path / "run.cfg"
        p.write_text(f"annotation_file=a{sep}b\n", encoding="utf-8")
        assert build_config(p).annotation_file == f"a{sep}b"
        p.write_text(f"# note{sep}warp=1\nannotation_file=a{sep}b\nwarp=2\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(p))}:3: unknown key 'warp'$"):
            build_config(p)

    def test_sub_configs(self):
        cfg = build_config(None, {"lam": 0.3, "kappa1": 5})
        assert cfg.assoc_config().lam == 0.3
        assert cfg.tpod_config().kappa1 == 5


class TestRangeChecks:
    def test_run_config_checks_on_construction(self):
        with pytest.raises(ValueError):
            RunConfig(kappa1=0)

    @pytest.mark.parametrize("key, value", [("lam", 0.0), ("lam", 1e6), ("fixed_w_aaw", 0.0),
                                            ("fixed_w_aaw", 2.0)])
    def test_assoc_range_ends_kept(self, key, value):
        assert getattr(RunConfig(**{key: value}), key) == value


_KEYS = sorted(config_key(f.name) for f in fields(RunConfig))
_JUNK = ["nan", "inf", "-inf", "-1", "abc", "", "0", "1", "0.5", "1.5", "1e309", "true", "no"]


def _config_lines():
    value = st.one_of(st.sampled_from(_JUNK), st.text(string.printable.strip(), max_size=6))
    key = st.one_of(st.sampled_from(_KEYS), st.sampled_from(["warp", "lam", "Lambda", ""]))
    pair = st.builds(lambda k, v: f"{k}={v}", key, value)
    return st.lists(st.one_of(pair, st.sampled_from(["# note", "junk", "=1"])), max_size=6)


class TestConfigFuzz:
    @settings(max_examples=300, deadline=None)
    @given(_config_lines())
    @example(["fixed_w_aaw=abc"])
    def test_value_or_input_error(self, lines):
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "run.cfg"
            p.write_text("\n".join(lines) + "\n", encoding="utf-8")
            try:
                cfg = build_config(p)
            except InputError:
                return
        assert isinstance(cfg, RunConfig)
        for f in fields(cfg):
            value = getattr(cfg, f.name)
            if isinstance(value, float):
                assert math.isfinite(value), f.name


class TestReadmeTable:
    def test_table_lists_every_config_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### Configuration", 1)[1].split("\n## ", 1)[0]
        keys = set()
        for row in section.splitlines():
            if row.startswith("| `"):
                keys.update(re.findall(r"`([^`]+)`", row.split("|")[1]))
        assert keys == set(_KEYS)
