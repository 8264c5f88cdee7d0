import json
from dataclasses import asdict

import pytest
from hypothesis import given, strategies as st

from macsort.captions import (
    GmotAnnotation,
    load_annotation,
    parse_annotation,
    parse_caption,
)
from macsort.errors import CaptionGrammarError, JsonError, SchemaError

CAR_ANNOTATION = {
    "class_name": "car",
    "class_synonyms": ["automobile", "vehicle"],
    "definition": "a road vehicle powered by an engine",
    "include_attributes": ["white headlight"],
    "exclude_attributes": ["red taillight"],
    "caption": "Track white headlight cars while excluding red taillight cars",
    "track_path": "gt/cars.txt",
}


class TestParseAnnotation:
    def test_full_document(self):
        ann = parse_annotation(json.dumps(CAR_ANNOTATION).encode())
        assert ann.class_name == "car"
        assert ann.class_synonyms == ["automobile", "vehicle"]
        assert ann.include_attributes == ["white headlight"]
        assert ann.exclude_attributes == ["red taillight"]
        assert ann.track_path == "gt/cars.txt"

    def test_missing_class_name(self):
        doc = {k: v for k, v in CAR_ANNOTATION.items() if k != "class_name"}
        with pytest.raises(SchemaError) as exc:
            parse_annotation(json.dumps(doc))
        assert exc.value.field == "class_name"

    def test_empty_optional_lists(self):
        ann = parse_annotation(
            json.dumps({"class_name": "duck", "caption": "Track ducks"})
        )
        assert ann.class_synonyms == []
        assert ann.include_attributes == []
        assert ann.exclude_attributes == []

    def test_ill_typed_list(self):
        doc = dict(CAR_ANNOTATION, class_synonyms="automobile")
        with pytest.raises(SchemaError) as exc:
            parse_annotation(json.dumps(doc))
        assert exc.value.field == "class_synonyms"

    def test_malformed_json(self):
        with pytest.raises(JsonError):
            parse_annotation(b"{not json")

    def test_round_trip(self):
        ann = parse_annotation(json.dumps(CAR_ANNOTATION))
        assert parse_annotation(json.dumps(asdict(ann))) == ann

    def test_load_and_resolve(self, tmp_path):
        path = tmp_path / "car.json"
        path.write_text(json.dumps(CAR_ANNOTATION))
        ann = load_annotation(path)
        assert path.parent / ann.track_path == tmp_path / "gt/cars.txt"


class TestParseCaption:
    def test_include_exclude_template(self):
        ann = parse_annotation(json.dumps(CAR_ANNOTATION))
        query = parse_caption(ann.caption, ann)
        assert query.general == "cars"
        assert query.include == "white headlight"
        assert query.exclude == "red taillight"

    def test_no_exclusion_template(self):
        ann = GmotAnnotation(class_name="balloon", caption="Track red balloon")
        query = parse_caption(ann.caption, ann)
        assert (query.general, query.include, query.exclude) == ("balloon", "red", "")

    def test_missing_track_keyword(self):
        ann = GmotAnnotation(class_name="duck", caption="Follow the ducks")
        with pytest.raises(CaptionGrammarError):
            parse_caption(ann.caption, ann)

    def test_unanchored_remainder(self):
        ann = GmotAnnotation(class_name="duck", caption="Track small birds")
        with pytest.raises(CaptionGrammarError) as exc:
            parse_caption(ann.caption, ann)
        assert "small birds" in str(exc.value)

    def test_synonym_anchor(self):
        ann = GmotAnnotation(
            class_name="car",
            class_synonyms=["automobile"],
            caption="Track rusty automobiles",
        )
        query = parse_caption(ann.caption, ann)
        assert query.general == "automobiles"
        assert query.include == "rusty"

    def test_case_insensitive(self):
        ann = GmotAnnotation(class_name="Car", caption="track white CARS")
        query = parse_caption(ann.caption, ann)
        assert query.general == "CARS"
        assert query.include == "white"

    def test_plural_class_name_matches_singular(self):
        ann = GmotAnnotation(class_name="ducks", caption="Track yellow duck")
        assert parse_caption(ann.caption, ann).general == "duck"

    def test_empty_include_allowed(self):
        ann = GmotAnnotation(class_name="dancer", caption="Track dancer")
        query = parse_caption(ann.caption, ann)
        assert (query.general, query.include, query.exclude) == ("dancer", "", "")

    def test_empty_exclude_attribute_rejected(self):
        ann = GmotAnnotation(
            class_name="car", caption="Track cars while excluding cars"
        )
        with pytest.raises(CaptionGrammarError):
            parse_caption(ann.caption, ann)

    def test_anchor_needs_word_boundary(self):
        # "boxcars" must not match class "car(s)" mid-word
        ann = GmotAnnotation(class_name="car", caption="Track red boxcars")
        with pytest.raises(CaptionGrammarError):
            parse_caption(ann.caption, ann)


WORDS = ["red", "white", "striped", "small", "fast", "spotted", "glowing"]
CLASSES = ["duck", "balloon", "zebra", "stock", "insect"]


@st.composite
def caption_case(draw):
    cls = draw(st.sampled_from(CLASSES))
    include = draw(st.lists(st.sampled_from(WORDS), min_size=0, max_size=3))
    has_exclude = draw(st.booleans())
    exclude = (
        draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=3))
        if has_exclude
        else []
    )
    plural = draw(st.booleans())
    surface = cls + "s" if plural else cls
    return cls, " ".join(include), " ".join(exclude), surface


class TestTemplateInversion:
    @given(caption_case())
    def test_parse_inverts_construction(self, case):
        cls, include, exclude, surface = case
        caption = "Track " + " ".join(filter(None, [include, surface]))
        if exclude:
            caption += f" while excluding {exclude} {surface}"
        ann = GmotAnnotation(class_name=cls, caption=caption)
        query = parse_caption(caption, ann)
        assert query.general == surface
        assert query.include == include
        assert query.exclude == exclude
