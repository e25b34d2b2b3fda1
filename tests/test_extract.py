"""Sentence splitting, tagging, pattern matching, and the full extractor."""

import pathlib
import tempfile

import pytest
from hypothesis import given
from hypothesis import strategies as st

from geotri.extract import (
    _CLASS_WORDS,
    EntitySpan,
    PatternSet,
    Triplet,
    extract_triplets,
    load_patterns,
    match_relation,
    read_triplets_tsv,
    split_sentences,
    tag_entities,
    token_class,
    tokenize,
    write_triplets_tsv,
)
from geotri.gazetteer import GazetteerEntry, Poi, build_gazetteer


def test_split_on_terminators():
    text = "One here. Two there! Three somewhere? Four"
    assert split_sentences(text) == [
        "One here.",
        "Two there!",
        "Three somewhere?",
        "Four",
    ]


def test_split_guards_abbreviations():
    text = "Dr. Adams wrote that Cambridge is near Boston. So it is."
    assert split_sentences(text) == [
        "Dr. Adams wrote that Cambridge is near Boston.",
        "So it is.",
    ]


def test_split_handles_missing_trailing_space():
    assert split_sentences("All one sentence.") == ["All one sentence."]
    assert split_sentences("") == []


def test_tokenize_separates_punctuation():
    assert tokenize("Rio de Janeiro, which is in Brazil.") == [
        "Rio", "de", "Janeiro", ",", "which", "is", "in", "Brazil", ".",
    ]


def test_token_classes():
    assert token_class("the") == "DT"
    assert token_class("which") == "WDT"
    assert token_class("to") == "TO"
    assert token_class("north") == "DIR"
    assert token_class("close") == "JJ"
    assert token_class("just") == "RB"
    assert token_class("far") == "RB"
    assert token_class("located") == "VBN"
    assert token_class("in") == "IN"
    assert token_class("is") == "VBZ"
    assert token_class(",") == "PUNCT"
    assert token_class("10") == "UNK"
    assert token_class("invested") == "UNK"


def test_every_class_word_keeps_its_tag():
    for tag, words in _CLASS_WORDS.items():
        for word in words:
            assert (token_class(word), token_class(word.upper())) == (tag, tag)


def test_token_class_s_suffix_verb_heuristic():
    assert token_class("sprawls") == "VBZ"
    assert token_class("dollars") == "VBZ"
    assert token_class("as") == "UNK"


def demo_gazetteer():
    return build_gazetteer(
        [
            GazetteerEntry("Boston", (), 42.36, -71.06),
            GazetteerEntry("Brooklyn", (), 40.68, -73.94),
            GazetteerEntry("Brooklyn Bridge", (), 40.71, -73.99),
            GazetteerEntry("New York", ("NYC",), 40.71, -74.01),
            GazetteerEntry("Rio de Janeiro", ("Rio",), -22.91, -43.17),
        ]
    )


def test_tag_entities_prefers_longest_match():
    tokens = tokenize("The Brooklyn Bridge stands here.")
    spans = tag_entities(tokens, demo_gazetteer())
    assert [s.poi.name for s in spans] == ["Brooklyn Bridge"]
    assert (spans[0].token_start, spans[0].token_end) == (1, 3)


def test_tag_entities_never_spans_punctuation():
    tokens = tokenize("Rio de Janeiro, which is in Brazil.")
    spans = tag_entities(tokens, demo_gazetteer())
    assert [s.poi.name for s in spans] == ["Rio de Janeiro"]
    assert spans[0].token_end == 3


def test_tag_entities_resolves_alternate_names():
    spans = tag_entities(tokenize("NYC is near Boston."), demo_gazetteer())
    assert [s.poi.name for s in spans] == ["New York", "Boston"]


def test_tag_entities_requires_exact_normalized_match():
    spans = tag_entities(tokenize("Bostn is lovely."), demo_gazetteer())
    assert spans == []


def test_entity_span_rejects_bad_bounds():
    poi = Poi("Boston", 42.36, -71.06)
    with pytest.raises(ValueError):
        EntitySpan(3, 3, "Boston", poi)


def demo_patterns():
    return PatternSet(
        syntactic_patterns=(
            ("ENTITY", "VBZ", "IN", "ENTITY"),
            ("ENTITY", "PUNCT", "WDT", "VBZ", "IN", "ENTITY"),
            ("ENTITY", "VBZ", "DIR", "IN", "ENTITY"),
        ),
        relation_strings={
            "near": (("near",),),
            "in": (("in",),),
            "north of": (("north", "of"),),
        },
    )


def spans_for(tokens, gaz=None):
    return tag_entities(tokens, gaz or demo_gazetteer())


def test_match_relation_simple_copula():
    tokens = tokenize("New York is near Boston.")
    left, right = spans_for(tokens)
    assert match_relation(tokens, left, right, demo_patterns()) == "near"


def test_match_relation_rejects_unlisted_gap_shape():
    # Money sentence: right preposition, wrong syntax between the entities.
    gaz = build_gazetteer(
        [
            GazetteerEntry("Deutsche Bank", (), 50.11, 8.67),
            GazetteerEntry("Brazil", (), -14.24, -51.93),
        ]
    )
    tokens = tokenize("Deutsche Bank invested 10 million dollars in Brazil.")
    left, right = spans_for(tokens, gaz)
    assert match_relation(tokens, left, right, demo_patterns()) is None


def test_match_relation_requires_connector_phrase():
    # "is by" fits no connector even though VBZ IN matches syntactically.
    tokens = tokenize("New York is by Boston.")
    left, right = spans_for(tokens)
    assert match_relation(tokens, left, right, demo_patterns()) is None


def test_match_relation_enforces_gap_limit():
    tokens = tokenize("Rio de Janeiro, which is in New York.")
    left, right = spans_for(tokens)
    patterns = demo_patterns()
    assert match_relation(tokens, left, right, patterns, max_gap=4) == "in"
    assert match_relation(tokens, left, right, patterns, max_gap=3) is None


def test_match_relation_longest_connector_wins():
    patterns = PatternSet(
        syntactic_patterns=(("ENTITY", "VBZ", "DIR", "IN", "ENTITY"),),
        relation_strings={"of": (("of",),), "north of": (("north", "of"),)},
    )
    tokens = tokenize("Brooklyn is north of Boston.")
    left, right = spans_for(tokens)
    assert match_relation(tokens, left, right, patterns) == "north of"


def test_match_relation_label_tie_breaks_lexicographically():
    patterns = PatternSet(
        syntactic_patterns=(("ENTITY", "VBZ", "IN", "ENTITY"),),
        relation_strings={"beside": (("near",),), "adjacent": (("near",),)},
    )
    tokens = tokenize("New York is near Boston.")
    left, right = spans_for(tokens)
    assert match_relation(tokens, left, right, patterns) == "adjacent"


def test_match_relation_rejects_overlapping_spans():
    tokens = tokenize("New York is near Boston.")
    left, right = spans_for(tokens)
    with pytest.raises(ValueError):
        match_relation(tokens, right, left, demo_patterns())


def test_pattern_set_validation():
    with pytest.raises(ValueError):
        PatternSet((("ENTITY", "VBZ"),), {"near": (("near",),)})
    with pytest.raises(ValueError):
        PatternSet((("VBZ", "ENTITY", "ENTITY"),), {"near": (("near",),)})
    with pytest.raises(ValueError):
        PatternSet((("ENTITY", "BOGUS", "ENTITY"),), {"near": (("near",),)})
    with pytest.raises(ValueError):
        PatternSet((("ENTITY", "IN", "ENTITY"),), {"Near": (("near",),)})
    with pytest.raises(ValueError):
        PatternSet((("ENTITY", "IN", "ENTITY"),), {"near": ()})


def test_pattern_set_without_label():
    trimmed = demo_patterns().without_label("near")
    assert "near" not in trimmed.relation_strings
    assert "in" in trimmed.relation_strings


def test_load_patterns_pools_rules(patterns):
    # Shared syntax rows collapse into one pooled pattern apiece.
    assert len(set(patterns.syntactic_patterns)) == len(patterns.syntactic_patterns)
    assert ("ENTITY", "VBZ", "IN", "ENTITY") in patterns.syntactic_patterns
    assert patterns.relation_strings["near"] == (("near",),)
    assert patterns.relation_strings["north of"] == (("north", "of"),)


def test_load_patterns_rejects_wrong_arity(tmp_path):
    path = tmp_path / "patterns.tsv"
    path.write_text("near\tnear\n", encoding="utf-8")
    with pytest.raises(ValueError, match="3 tab-separated"):
        load_patterns(str(path))


def test_triplet_rejects_self_relation():
    poi = Poi("Boston", 42.36, -71.06)
    with pytest.raises(ValueError):
        Triplet(poi, "near", poi)


def test_extract_fig2_sentence(gazetteer, patterns):
    triplets = extract_triplets(["New York is near Boston."], gazetteer, patterns)
    assert [(t.subject.name, t.relation, t.object.name) for t in triplets] == [
        ("New York", "near", "Boston")
    ]


def test_extract_skips_money_sentence_keeps_containment(gazetteer, patterns):
    corpus = [
        "Deutsche Bank invested 10 million dollars in Brazil. The deal made headlines.",
        "Deutsche Bank invested 10 million dollars in Rio de Janeiro, which is in Brazil.",
    ]
    triplets = extract_triplets(corpus, gazetteer, patterns)
    assert [(t.subject.name, t.relation, t.object.name) for t in triplets] == [
        ("Rio de Janeiro", "in", "Brazil")
    ]


def test_extract_only_adjacent_pairs(gazetteer, patterns):
    corpus = ["Monastiraki Metro Station is located in Athens, near the Acropolis."]
    triplets = extract_triplets(corpus, gazetteer, patterns)
    assert [(t.subject.name, t.relation, t.object.name) for t in triplets] == [
        ("Monastiraki Metro Station", "in", "Athens")
    ]


def test_extract_corpus_matches_frozen_output(fixtures_dir, gazetteer, patterns, corpus):
    triplets = extract_triplets(corpus, gazetteer, patterns)
    expected = read_triplets_tsv(str(fixtures_dir / "expected_triplets.tsv"))
    assert [(t.subject, t.relation, t.object) for t in triplets] == [
        (t.subject, t.relation, t.object) for t in expected
    ]


def test_extract_corpus_precision_recall(gazetteer, patterns, corpus, gold_triplets):
    triplets = extract_triplets(corpus, gazetteer, patterns)
    predicted = {(t.subject.name, t.relation, t.object.name) for t in triplets}
    true_positives = predicted & gold_triplets
    assert len(true_positives) / len(predicted) >= 0.9
    assert len(true_positives) / len(gold_triplets) >= 0.8


def test_extract_is_deterministic(gazetteer, patterns, corpus):
    first = extract_triplets(corpus, gazetteer, patterns)
    second = extract_triplets(corpus, gazetteer, patterns)
    assert first == second


def test_triplets_tsv_round_trip(tmp_path):
    triplets = [
        Triplet(Poi("New York", 40.7128, -74.006), "near", Poi("Boston", 42.3601, -71.0589)),
        Triplet(Poi("Rio de Janeiro", -22.9068, -43.1729), "in", Poi("Brazil", -14.235, -51.9253)),
    ]
    path = tmp_path / "triplets.tsv"
    write_triplets_tsv(triplets, str(path))
    loaded = read_triplets_tsv(str(path))
    assert [(t.subject, t.relation, t.object) for t in loaded] == [
        (t.subject, t.relation, t.object) for t in triplets
    ]


name_text = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll"), max_codepoint=0x24F),
    min_size=1,
    max_size=12,
)
coordinate = st.floats(min_value=-89.0, max_value=89.0).map(lambda v: round(v, 6))


@given(name_text, name_text, coordinate, coordinate, coordinate, coordinate)
def test_triplet_tsv_round_trip_property(s_name, o_name, s_lat, s_lon, o_lat, o_lon):
    if s_name == o_name:
        o_name = o_name + "x"
    triplet = Triplet(Poi(s_name, s_lat, s_lon), "near", Poi(o_name, o_lat, o_lon))
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "one.tsv"
        write_triplets_tsv([triplet], str(path))
        (loaded,) = read_triplets_tsv(str(path))
    assert loaded.subject == triplet.subject
    assert loaded.object == triplet.object
    assert loaded.relation == "near"
