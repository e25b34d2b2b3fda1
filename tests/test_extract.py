"""Sentence splitting, tagging, pattern matching, and the full extractor."""

import pathlib
import re
import tempfile
import time
import unicodedata

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geotri import extract
from geotri.extract import (
    _ABBREVIATIONS,
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
from geotri.gazetteer import GazetteerEntry, Poi, build_gazetteer, geocode, normalize_name


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


_BOUNDARY = re.compile(r"([.!?]+)(\s+)")
_WORD_BEFORE = re.compile(r"(\w+)\W*$")


def split_reference(text):
    # Reference splitter: the abbreviation check searches the whole sentence so far.
    sentences, start = [], 0
    for match in _BOUNDARY.finditer(text):
        if match.group(1) == ".":
            word = _WORD_BEFORE.search(text[start : match.start()])
            if word and word.group(1).lower() in _ABBREVIATIONS:
                continue
        piece = text[start : match.end(1)].strip()
        if piece:
            sentences.append(piece)
        start = match.end()
    tail = text[start:].strip()
    return sentences + [tail] if tail else sentences


@st.composite
def mixed_case_abbreviation(draw):
    word = draw(st.sampled_from(sorted(_ABBREVIATIONS)))
    upper = draw(st.lists(st.booleans(), min_size=len(word), max_size=len(word)))
    return "".join(c.upper() if u else c for c, u in zip(word, upper))


# Words (with digits, "_", non-ASCII letters, a combining mark and a dot
# inside a word), terminator runs, and whitespace of several kinds.
_SPLIT_PIECES = [
    "Holm", "x_1", "_", "9", "é", "a\u0301", "İ", "ǅ", "Mt.Fuji", "etc.)",
    ".", "...", "?!", "!", "?", ")", ",", " ", "  ", "\t", "\n", "\u2003",
]


@example("Dr" + ". " * 3 + "x. y")
@example("Mt.Fuji. St.\tNo.\u2003ETC.. Holm?! x")
@settings(max_examples=500)
@given(st.lists(mixed_case_abbreviation() | st.sampled_from(_SPLIT_PIECES), max_size=24).map("".join))
def test_split_matches_the_whole_sentence_search(text):
    assert split_sentences(text) == split_reference(text)


@pytest.mark.parametrize(
    "text",
    ["We met Dr. Holm and " * 4000 + "left.", "Dr" + ". " * 40000, "." * 40000 + "x"],
    ids=["abbreviations", "dots-after-one-abbreviation", "terminator-run"],
)
def test_split_takes_linear_time(gazetteer, patterns, text):
    # Each of these took 20 s or more when every dot searched the sentence so far.
    began = time.perf_counter()
    assert len(split_sentences(text)) == 1
    assert extract_triplets([text], gazetteer, patterns) == []
    assert time.perf_counter() - began < 2.0


def test_tokenize_separates_punctuation():
    assert tokenize("Rio de Janeiro, which is in Brazil.") == [
        "Rio", "de", "Janeiro", ",", "which", "is", "in", "Brazil", ".",
    ]


def test_typographic_apostrophe_stays_inside_a_word(patterns):
    assert tokenize("Martha’s Vineyard and O'Hare’s.") == ["Martha’s", "Vineyard", "and", "O'Hare’s", "."]
    entries = [GazetteerEntry("Martha's Vineyard", (), 41.39, -70.61), GazetteerEntry("Boston", (), 42.36, -71.06)]
    gaz = build_gazetteer(entries)
    triplets = extract_triplets(["Martha’s Vineyard is near Boston."], gaz, patterns)
    assert [(t.subject.name, t.relation, t.object.name) for t in triplets] == [("Martha's Vineyard", "near", "Boston")]


def test_word_keeps_every_inner_apostrophe(patterns):
    assert tokenize("Kaua'i's Waimea Canyon is near Lihue.")[:3] == ["Kaua'i's", "Waimea", "Canyon"]
    assert tokenize("Rock ’n’ Roll, then 'n' alone.") == ["Rock", "’", "n", "’", "Roll", ",", "then", "'", "n", "'", "alone", "."]
    assert tokenize("Rock’n’Roll's") == ["Rock’n’Roll's"]
    entries = [
        GazetteerEntry("Kaua'i's Waimea Canyon", (), 22.07, -159.66),
        GazetteerEntry("Rock'n'Roll Park", (), 22.0, -159.5),
        GazetteerEntry("Lihue", (), 21.98, -159.37),
    ]
    gaz = build_gazetteer(entries)
    assert geocode("Kaua'i's Waimea Canyon", gaz, max_edit=0).name == "Kaua'i's Waimea Canyon"
    texts = ["Kaua'i's Waimea Canyon is near Lihue.", "Rock’n’Roll Park is near Lihue."]
    triplets = extract_triplets(texts, gaz, patterns)
    assert [(t.subject.name, t.relation, t.object.name) for t in triplets] == [
        ("Kaua'i's Waimea Canyon", "near", "Lihue"),
        ("Rock'n'Roll Park", "near", "Lihue"),
    ]


def test_tokenize_composes_decomposed_letters():
    decomposed = unicodedata.normalize("NFD", "Santos lies near São Paulo.")
    assert decomposed != "Santos lies near São Paulo."
    assert tokenize(decomposed) == ["Santos", "lies", "near", "São", "Paulo", "."]


@pytest.mark.parametrize("text_form", ["NFC", "NFD"])
@pytest.mark.parametrize("gazetteer_form", ["NFC", "NFD"])
def test_extract_matches_names_in_either_unicode_form(patterns, text_form, gazetteer_form):
    sao_paulo = unicodedata.normalize(gazetteer_form, "São Paulo")
    gaz = build_gazetteer([GazetteerEntry("Santos", (), -23.96, -46.33), GazetteerEntry(sao_paulo, (), -23.55, -46.63)])
    text = unicodedata.normalize(text_form, "Santos lies near São Paulo.")
    triplets = extract_triplets([text], gaz, patterns)
    # The place keeps the gazetteer's spelling.
    assert [(t.subject.name, t.relation, t.object.name) for t in triplets] == [("Santos", "near", sao_paulo)]


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


@pytest.mark.parametrize(
    "token", ["Bo9", "İ", "ǅ", "\u1f71", "\u212a", "ﬁ", "O'Hare", "Martha’s", "x_1", "_", ",", "’", "\u0301"]
)
def test_tag_keys_and_token_class_follow_their_slow_paths(token):
    # Slow paths: the key is normalize_name's, and PUNCT means no word character.
    key = normalize_name(token)
    names = (token, token.lower(), "x")
    gaz = build_gazetteer([GazetteerEntry(name, (), 0.0, float(i)) for i, name in enumerate(names)])
    spans = tag_entities([token], gaz)
    assert [s.poi for s in spans] == ([gaz.name_index[key]] if key else [])
    assert (token_class(token) == "PUNCT") == (re.search(r"\w", token) is None)


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


def window_tagger(tokens, gaz):
    # Reference tagger: every window without punctuation, longest first,
    # resolved by an exact geocode of the window's text.
    spans = []
    punct = [token_class(t) == "PUNCT" for t in tokens]
    max_words = max((key.count(" ") + 1 for key in gaz.name_index), default=0)
    i = 0
    while i < len(tokens):
        for length in range(min(max_words, len(tokens) - i), 0, -1):
            if any(punct[i : i + length]):
                continue
            surface = " ".join(tokens[i : i + length])
            poi = geocode(surface, gaz, max_edit=0)
            if poi is not None:
                spans.append(EntitySpan(i, i + length, poi))
                i += length
                break
        else:
            i += 1
    return spans


# Words whose lowercase form or normalization is unusual: apostrophes split a
# token into two words, "İ" lowercases to "i" plus a combining dot (not a
# word character), and a final "Σ" lowercases by context.
_WORDS = ["a", "B", "ab", "O'b", "b'a", "İ", "aİ", "İb", "ΑΣ", "Σa", "σς", "x_1", "é"]
_TEXT = st.lists(st.sampled_from(_WORDS + [" ", "  ", ".", ",", "-", "'", "\u0301"]), max_size=14).map("".join)


@example("ΑΣ Β aİ O'b")
@example("İ Σ ΑΣ'Β a\u0301b")
@given(_TEXT)
def test_window_key_is_the_join_of_token_keys(text):
    tokens = tokenize(text)
    runs, run = [], []
    for token in tokens + ["."]:
        if token_class(token) == "PUNCT":
            runs.append(run)
            run = []
        else:
            run.append(token)
    for run in runs:
        for i in range(len(run)):
            for j in range(i + 1, len(run) + 1):
                window = run[i:j]
                assert normalize_name(" ".join(window)) == " ".join(map(normalize_name, window))


_NAME = st.lists(st.sampled_from(_WORDS + [" ", "-", ". ", ", ", "'"]), min_size=1, max_size=5).map("".join)
# Names that are word-prefixes of one another: in "Rio de la Janeiro" the span
# grows through "rio de" and "rio de la" and must fall back to "Rio".
_NESTED = ["Rio", "Rio de Janeiro", "Rio de la Plata"]


@st.composite
def tagging_cases(draw):
    # Names collide after normalization ("a-b", "A b"), repeat with new
    # coordinates (equal names), and carry punctuation; the text mixes
    # names, loose words and punctuation.
    names = draw(st.lists(_NAME | st.sampled_from(_NESTED), min_size=1, max_size=6))
    names += draw(st.lists(st.sampled_from(names), max_size=3))
    entries = [
        GazetteerEntry(name, tuple(draw(st.lists(_NAME, max_size=2))), float(pos), 0.0)
        for pos, name in enumerate(names)
    ]
    loose = _WORDS + [".", ",", "-", "Rio", "de", "la", "Janeiro"]
    pieces = draw(st.lists(st.sampled_from(names) | st.sampled_from(loose), max_size=12))
    return build_gazetteer(entries), tokenize(" ".join(pieces))


_NESTED_GAZETTEER = build_gazetteer([GazetteerEntry(name, (), float(pos), 0.0) for pos, name in enumerate(_NESTED)])


@example((_NESTED_GAZETTEER, tokenize("Rio de la Janeiro, Rio de Janeiro de la Plata")))
@example((_NESTED_GAZETTEER, tokenize("Rio de la Plata Rio de")))
@settings(max_examples=300)
@given(tagging_cases())
def test_tagging_matches_window_geocode_tagger(case):
    gaz, tokens = case
    spans = tag_entities(tokens, gaz)
    assert spans == window_tagger(tokens, gaz)
    # Each span holds the index's own Poi for its text, not a copy.
    for span in spans:
        key = normalize_name(" ".join(tokens[span.token_start : span.token_end]))
        assert span.poi is gaz.name_index[key]


def test_entity_span_rejects_bad_bounds():
    poi = Poi("Boston", 42.36, -71.06)
    with pytest.raises(ValueError):
        EntitySpan(3, 3, poi)


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


def test_match_relation_enforces_gap_limit(monkeypatch):
    # The limit is the longest pattern's gap; a longer gap is rejected unclassed.
    patterns = demo_patterns()
    assert patterns.max_gap == 4
    assert PatternSet(patterns.syntactic_patterns[::2], patterns.relation_strings).max_gap == 3
    fits = tokenize("Rio de Janeiro, which is in New York.")
    too_long = tokenize("Rio de Janeiro, which is right in New York.")
    fits_spans, too_long_spans = spans_for(fits), spans_for(too_long)
    classed = []
    monkeypatch.setattr(extract, "token_class", lambda t: classed.append(t) or token_class(t))
    assert match_relation(fits, *fits_spans, patterns) == "in"
    assert classed == [",", "which", "is", "in"]
    classed.clear()
    assert match_relation(too_long, *too_long_spans, patterns) is None
    assert classed == []


def test_long_pattern_matches():
    patterns = PatternSet(
        (("ENTITY", "PUNCT", "WDT", "VBZ", "RB", "VBN", "JJ", "TO", "ENTITY"),),
        {"next to": (("next", "to"),)},
    )
    tokens = tokenize("Brooklyn, which is directly located next to Boston.")
    left, right = spans_for(tokens)
    assert match_relation(tokens, left, right, patterns) == "next to"
    assert patterns.max_gap == 7


def test_six_word_name_is_tagged_and_extracted():
    long_name = "Church of Saint Mary the Virgin"
    gaz = build_gazetteer(
        [GazetteerEntry(long_name, (), 51.75, -1.25), GazetteerEntry("Boston", (), 42.36, -71.06)]
    )
    tokens = tokenize(f"The {long_name} is near Boston.")
    spans = tag_entities(tokens, gaz)
    assert [(s.token_start, s.token_end, " ".join(tokens[s.token_start : s.token_end])) for s in spans] == [
        (1, 7, long_name),
        (9, 10, "Boston"),
    ]
    triplets = extract_triplets([f"The {long_name} is near Boston."], gaz, demo_patterns())
    assert [(t.subject.name, t.relation, t.object.name) for t in triplets] == [(long_name, "near", "Boston")]
    # Five of its six words start the name but match nothing.
    tokens = tokenize("The Church of Saint Mary the Great is near Boston.")
    assert [(s.token_start, s.token_end) for s in tag_entities(tokens, gaz)] == [(9, 10)]


def test_tagging_span_is_the_longest_indexed_name():
    # "O'Hare" normalizes to two words, so a one-token span can match a two-word name.
    gaz = build_gazetteer([GazetteerEntry("O'Hare", ("Chicago O'Hare Airport",), 41.98, -87.9)])
    assert gaz.name_prefixes == {"o", "chicago", "chicago o", "chicago o hare"}
    tokens = tokenize("Flights from O'Hare and Chicago O'Hare Airport.")
    assert [" ".join(tokens[s.token_start : s.token_end]) for s in tag_entities(tokens, gaz)] == [
        "O'Hare",
        "Chicago O'Hare Airport",
    ]
    # "chicago o hare" is a prefix of the four-word name, not a name: the span
    # starting at "Chicago" matches nothing and "O'Hare" is tagged on its own.
    tokens = tokenize("Chicago O'Hare Terminal")
    assert [(s.token_start, s.token_end) for s in tag_entities(tokens, gaz)] == [(1, 2)]


def test_match_relation_longest_connector_wins():
    patterns = PatternSet(
        syntactic_patterns=(("ENTITY", "VBZ", "DIR", "IN", "ENTITY"),),
        relation_strings={"of": (("of",),), "north of": (("north", "of"),)},
    )
    tokens = tokenize("Brooklyn is north of Boston.")
    left, right = spans_for(tokens)
    assert match_relation(tokens, left, right, patterns) == "north of"


def test_match_relation_ranks_each_label_by_its_longest_connector():
    tokens = tokenize("Alpha north of Beta")
    gaz = build_gazetteer([GazetteerEntry("Alpha", (), 1.0, 1.0), GazetteerEntry("Beta", (), 2.0, 2.0)])
    left, right = tag_entities(tokens, gaz)
    for a_connectors in ((("of",), ("north", "of")), (("north", "of"), ("of",))):
        patterns = PatternSet((("ENTITY", "DIR", "IN", "ENTITY"),), {"a": a_connectors, "b": (("north", "of"),)})
        assert match_relation(tokens, left, right, patterns) == "a"


def test_pattern_set_rejects_connector_words_with_whitespace():
    for connector in (("north of",), ("north", ""), (" of",)):
        with pytest.raises(ValueError, match="whitespace-free"):
            PatternSet((("ENTITY", "IN", "ENTITY"),), {"of": (connector,)})


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
