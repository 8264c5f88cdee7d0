"""Parsing of tracking annotations and their constrained caption grammar.

Captions follow two templates:

    Track [include_attribute] [class_name]
    Track [include_attribute] [class_name] while excluding [exclude_attribute] [class_name]

The split is anchored on the annotation's class name (case-insensitive,
tolerant of a singular/plural "s" suffix, synonyms as fallback anchors)
rather than free-text parsing; attribute phrases are kept verbatim.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from .errors import CaptionGrammarError, JsonError, SchemaError

_TRACK_RE = re.compile(r"^\s*track\b\s*", re.IGNORECASE)
_EXCLUDING_RE = re.compile(r"\s+while\s+excluding\b\s*", re.IGNORECASE)


@dataclass(frozen=True)
class GmotAnnotation:
    """One video's annotation record."""

    class_name: str
    class_synonyms: list[str] = field(default_factory=list)
    definition: str = ""
    include_attributes: list[str] = field(default_factory=list)
    exclude_attributes: list[str] = field(default_factory=list)
    caption: str = ""
    track_path: str = ""


@dataclass(frozen=True)
class CaptionQuery:
    """Prompt triple parsed from a caption.

    ``general`` is the class phrase as it appears in the caption; ``exclude``
    is empty exactly when the caption has no excluding clause.
    """

    general: str
    include: str
    exclude: str


def _require_str(obj: dict, key: str, default: str | None = None) -> str:
    if key not in obj:
        if default is not None:
            return default
        raise SchemaError(key)
    val = obj[key]
    if not isinstance(val, str):
        raise SchemaError(key, f"annotation field {key!r} must be a string")
    return val


def _require_str_list(obj: dict, key: str) -> list[str]:
    val = obj.get(key, [])
    if not isinstance(val, list) or any(not isinstance(x, str) for x in val):
        raise SchemaError(key, f"annotation field {key!r} must be a list of strings")
    return list(val)


def parse_annotation(raw: bytes | str) -> GmotAnnotation:
    """Parse one annotation JSON document.

    Missing attribute arrays default to empty; class_name and caption are
    mandatory and non-empty.
    """
    try:
        if isinstance(raw, bytes):
            raw = raw.decode("utf-8")
        obj = json.loads(raw)
    # ValueError covers JSONDecodeError, UnicodeDecodeError and an integer
    # literal past Python's digit limit; RecursionError, nesting too deep
    except (ValueError, RecursionError) as exc:
        raise JsonError(f"malformed annotation JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise SchemaError("root", "annotation JSON must be an object")
    class_name = _require_str(obj, "class_name")
    caption = _require_str(obj, "caption")
    if not class_name:
        raise SchemaError("class_name", "class_name must be non-empty")
    if not caption:
        raise SchemaError("caption", "caption must be non-empty")
    return GmotAnnotation(
        class_name=class_name,
        class_synonyms=_require_str_list(obj, "class_synonyms"),
        definition=_require_str(obj, "definition", default=""),
        include_attributes=_require_str_list(obj, "include_attributes"),
        exclude_attributes=_require_str_list(obj, "exclude_attributes"),
        caption=caption,
        track_path=_require_str(obj, "track_path", default=""),
    )


def load_annotation(path: str | Path) -> GmotAnnotation:
    return parse_annotation(Path(path).read_bytes())


def _anchor_variants(name: str) -> list[str]:
    variants = {name, name + "s"}
    if name.endswith("s") and len(name) > 1:
        variants.add(name[:-1])
    return sorted(variants, key=len, reverse=True)


def _split_on_class(segment: str, anchors: list[str]) -> tuple[str, str]:
    """Split 'attribute words... class-phrase' on a trailing class anchor.

    Returns (class surface form from the caption, attribute prefix).
    """
    stripped = segment.strip()
    lowered = stripped.lower()
    for anchor in anchors:
        for variant in _anchor_variants(anchor.lower()):
            if not lowered.endswith(variant):
                continue
            cut = len(stripped) - len(variant)
            if cut > 0 and not stripped[cut - 1].isspace():
                continue  # anchor must start at a word boundary
            return stripped[cut:], stripped[:cut].strip()
    raise CaptionGrammarError(f"no class name found at the end of: {stripped!r}")


def parse_caption(caption: str, annotation: GmotAnnotation) -> CaptionQuery:
    """Split a caption into (general, include, exclude) prompts.

    The annotation's class_name (then class_synonyms) anchor the split;
    raises CaptionGrammarError with the unmatched remainder otherwise.
    """
    m = _TRACK_RE.match(caption)
    if m is None:
        raise CaptionGrammarError(f"caption does not start with 'Track': {caption!r}")
    rest = caption[m.end():]
    parts = _EXCLUDING_RE.split(rest, maxsplit=1)
    anchors = [annotation.class_name] + list(annotation.class_synonyms)

    general, include = _split_on_class(parts[0], anchors)
    if not general:
        raise CaptionGrammarError(f"empty class phrase in: {caption!r}")
    if len(parts) == 1:
        return CaptionQuery(general=general, include=include, exclude="")

    _, exclude = _split_on_class(parts[1], anchors)
    if not exclude:
        raise CaptionGrammarError(f"empty exclude attribute in: {caption!r}")
    return CaptionQuery(general=general, include=include, exclude=exclude)
