"""Run configuration: defaults, key=value config files, flag overrides.

Precedence is flags > config file > defaults; unknown keys are rejected.
Each knob is declared once, on the dataclass of the stage it belongs to
(``AssocConfig``, ``TpodConfig`` or ``CliConfig``), which also checks its
range; ``RunConfig`` is the flat union of their fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, make_dataclass
from pathlib import Path

from .errors import ConfigError
from .prompt_filter import TpodConfig
from .tracker import AssocConfig

# dataclass attribute -> config file key (only where they differ)
_KEY_ALIASES = {"lam": "lambda"}


@dataclass
class CliConfig:
    """Evaluation and path settings of the command line."""

    iou_threshold: float = 0.5
    hota_sweep: bool = False
    input_dir: str = ""
    output_dir: str = ""
    annotation_file: str = ""

    def __post_init__(self):
        if not (0.0 < self.iou_threshold < 1.0):
            raise ValueError(f"iou_threshold must be in (0, 1), got {self.iou_threshold}")


_SECTIONS = (AssocConfig, TpodConfig, CliConfig)


def _section(cfg, cls):
    return cls(**{f.name: getattr(cfg, f.name) for f in fields(cls)})


def _check_ranges(self) -> None:
    for cls in _SECTIONS:
        _section(self, cls)


def _assoc_config(self) -> AssocConfig:
    return _section(self, AssocConfig)


def _tpod_config(self) -> TpodConfig:
    return _section(self, TpodConfig)


RunConfig = make_dataclass(
    "RunConfig",
    [(f.name, f.type, field(default=f.default)) for cls in _SECTIONS for f in fields(cls)],
    namespace={
        "__module__": __name__,
        "__doc__": "Flat bag of every knob the CLI exposes: the fields of "
        "AssocConfig, TpodConfig and CliConfig, range-checked on construction.",
        "__post_init__": _check_ranges,
        "assoc_config": _assoc_config,
        "tpod_config": _tpod_config,
    },
)


def config_key(name: str) -> str:
    """Config file key of a RunConfig field."""
    return _KEY_ALIASES.get(name, name)


_FIELDS = {f.name: f for f in fields(RunConfig)}
_KEY_TO_FIELD = {config_key(name): name for name in _FIELDS}
_PARSERS = {"int": int, "float": float, "str": str}


def _parse_bool(key: str, raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {raw!r}")


def _coerce(field_name: str, raw: str):
    key = config_key(field_name)
    ftype = _FIELDS[field_name].type
    if ftype == "bool":
        return _parse_bool(key, raw)
    if ftype == "float | None":  # empty means unset
        if not raw.strip():
            return None
        ftype = "float"
    try:
        return _PARSERS[ftype](raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def read_config_file(path: str | Path) -> dict[str, str]:
    """Raw key=value pairs; unknown or duplicate keys are rejected."""
    pairs: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in _KEY_TO_FIELD:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in pairs:
            raise ConfigError(f"{path}:{lineno}: duplicate config key {key!r}")
        pairs[key] = raw.strip()
    return pairs


def build_config(
    config_path: str | Path | None = None, overrides: dict | None = None
) -> RunConfig:
    """Assemble a RunConfig from defaults, an optional file, and overrides.

    Override values may be already-typed or raw strings; keys may be field
    names or config keys.
    """
    values = {}
    if config_path is not None:
        for key, raw in read_config_file(config_path).items():
            name = _KEY_TO_FIELD[key]
            values[name] = _coerce(name, raw)
    for key, value in (overrides or {}).items():
        name = _KEY_TO_FIELD.get(key, key)
        if name not in _FIELDS:
            raise ConfigError(f"unknown config key {key!r}")
        values[name] = _coerce(name, value) if isinstance(value, str) else value
    try:
        return RunConfig(**values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
