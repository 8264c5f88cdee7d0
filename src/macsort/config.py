"""Run configuration: defaults, key=value config files, flag overrides.

Precedence is flags > config file > defaults; unknown keys are rejected.
Each knob is declared once, on the dataclass of the stage it belongs to
(``AssocConfig``, ``TpodConfig`` or ``CliConfig``), which also checks its
range; ``RunConfig`` is the flat union of their fields. ``parse_key_values``
reads every key=value file of the toolkit, config files and ``synth``
scenario specs alike, typing each value from the dataclass field it sets.
"""

from __future__ import annotations

from dataclasses import Field, dataclass, field, fields, make_dataclass
from pathlib import Path

from .errors import ConfigError, InputError
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


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


_PARSERS = {"int": int, "float": float, "str": str, "bool": _parse_bool}


def _parse_value(f: Field, raw: str, error: type[InputError], key: str, parser=None):
    """``raw`` as a value of field ``f``'s declared type: int, float, str,
    bool, or ``T | None``, where an empty value means None. ``parser``
    replaces the type's own; a bad value raises ``error`` naming ``key``."""
    if f.type.endswith(" | None") and not raw.strip():
        return None
    try:
        return (parser or _PARSERS[f.type.removesuffix(" | None")])(raw)
    except ValueError as exc:
        raise error(f"{key}: {exc}") from exc


def read_utf8(path: str | Path, error: type[InputError]) -> str:
    """A file's text; bytes that are not UTF-8 raise ``error``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: {exc}") from exc


def parse_key_values(text: str, cls, error: type[InputError], where: str = "",
                     aliases: dict[str, str] | None = None,
                     parsers: dict | None = None) -> dict:
    """The fields of dataclass ``cls`` that key=value ``text`` sets, by
    field name, each typed by ``_parse_value``.

    Blank and ``#`` lines are skipped. A line without ``=`` or with an
    unknown or repeated key raises ``error`` naming the file ``where`` and
    the line. ``aliases`` maps field names to keys where they differ;
    ``parsers`` maps a field name to its own value parser.
    """
    by_key = {(aliases or {}).get(f.name, f.name): f for f in fields(cls)}
    values = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        at = f"{where}:{lineno}" if where else f"line {lineno}"
        if "=" not in line:
            raise error(f"{at}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in by_key:
            raise error(f"{at}: unknown key {key!r}")
        f = by_key[key]
        if f.name in values:
            raise error(f"{at}: duplicate key {key!r}")
        values[f.name] = _parse_value(f, raw.strip(), error, key, (parsers or {}).get(f.name))
    return values


def read_config_file(path: str | Path) -> dict:
    """A config file's typed values by RunConfig field name."""
    return parse_key_values(read_utf8(path, ConfigError), RunConfig, ConfigError, str(path),
                            _KEY_ALIASES)


def build_config(
    config_path: str | Path | None = None, overrides: dict | None = None
) -> RunConfig:
    """Assemble a RunConfig from defaults, an optional file, and overrides.

    Override values may be already-typed or raw strings; keys may be field
    names or config keys.
    """
    values = read_config_file(config_path) if config_path is not None else {}
    for key, value in (overrides or {}).items():
        name = _KEY_TO_FIELD.get(key, key)
        if name not in _FIELDS:
            raise ConfigError(f"unknown config key {key!r}")
        if isinstance(value, str):
            value = _parse_value(_FIELDS[name], value, ConfigError, config_key(name))
        values[name] = value
    try:
        return RunConfig(**values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
