"""Gazetteer loading, name normalization, edit distance, and geocoding."""

import re
import unicodedata

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geotri.extract import extract_triplets
from geotri.gazetteer import (
    EmptyGazetteerError,
    Gazetteer,
    GazetteerEntry,
    Poi,
    build_gazetteer,
    geocode,
    levenshtein,
    load_gazetteer,
    normalize_name,
)


def edit_matrix(a: str, b: str) -> int:
    # Independent full-matrix dynamic program used as the oracle.
    rows, cols = len(a) + 1, len(b) + 1
    table = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        table[i][0] = i
    for j in range(cols):
        table[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            table[i][j] = min(
                table[i - 1][j] + 1, table[i][j - 1] + 1, table[i - 1][j - 1] + cost
            )
    return table[-1][-1]


SMALL_ENTRIES = [
    GazetteerEntry("Boston", (), 42.36, -71.06),
    GazetteerEntry("New York", ("NYC",), 40.71, -74.01),
    GazetteerEntry("Athens", ("Athina",), 37.98, 23.73),
]


def small_gazetteer() -> Gazetteer:
    return build_gazetteer(SMALL_ENTRIES)


def exact(a: str, b: str) -> int:
    # No edit distance exceeds the longer length, so this limit never caps it.
    return levenshtein(a, b, max(len(a), len(b)))


def test_levenshtein_identical():
    assert exact("athens", "athens") == 0


def test_levenshtein_insertions_only():
    assert exact("", "abc") == 3


def test_levenshtein_kitten_sitting():
    assert edit_matrix("kitten", "sitting") == 3
    assert exact("kitten", "sitting") == 3


def test_levenshtein_single_edits():
    assert exact("boston", "bostn") == 1
    assert exact("boston", "bostoon") == 1
    assert exact("boston", "bosten") == 1


# Two-letter strings share most letters, so their distances often fall inside
# a small limit and the bounded band is exercised, not only its early exit.
_TEXTS = st.text(max_size=12) | st.text("ab", max_size=12)


@given(_TEXTS, _TEXTS, st.integers(0, 4))
# The last row still has a cell within the limit; its last cell is 6, not 5.
@example("aaabbb", "bbbaaa", 4)
def test_levenshtein_matches_matrix_oracle(a, b, limit):
    expected = edit_matrix(a, b)
    assert exact(a, b) == expected
    assert levenshtein(a, b, limit) == (expected if expected <= limit else limit + 1)


@pytest.mark.parametrize("limit", [-1, 1.5])
def test_levenshtein_rejects_a_limit_that_is_not_a_count(limit):
    # A limit of -1 used to return 0 for two different strings.
    with pytest.raises(ValueError, match="limit"):
        levenshtein("a", "b", limit=limit)


@given(st.text(max_size=12), st.text(max_size=12))
def test_levenshtein_symmetric(a, b):
    assert exact(a, b) == exact(b, a)


@settings(max_examples=50)
@given(st.text(max_size=8), st.text(max_size=8), st.text(max_size=8))
def test_levenshtein_triangle_inequality(a, b, c):
    assert exact(a, c) <= exact(a, b) + exact(b, c)


def test_normalize_lowercases_and_collapses_whitespace():
    assert normalize_name("  New   York ") == "new york"
    assert normalize_name("St. Peter's") == "st peter s"
    assert normalize_name("Rio-de-Janeiro") == "rio de janeiro"


@example("İstanbul")
@example("ΑΣ b_1")
@example("Sa\u0303o Paulo")
@example("\u1f71")
@given(st.text(max_size=12))
def test_normalize_matches_the_two_pass_definition(name):
    # Lowercase, compose to NFC, punctuation runs to one space, whitespace runs to one space, strip.
    composed = unicodedata.normalize("NFC", name.lower())
    expected = re.sub(r"\s+", " ", re.sub(r"[^\w\s]+", " ", composed)).strip()
    assert normalize_name(name) == expected


@pytest.mark.parametrize("form", ["NFC", "NFD"])
def test_decomposed_and_composed_names_index_and_geocode_alike(form):
    # A decomposed "ã" is "a" plus a combining tilde, which is not a word character.
    gaz = build_gazetteer([GazetteerEntry(unicodedata.normalize(form, "São Paulo"), (), -23.55, -46.63)])
    assert list(gaz.name_index) == ["são paulo"]
    for query in ("São Paulo", unicodedata.normalize("NFD", "São Paulo")):
        assert geocode(query, gaz, max_edit=0) is gaz.name_index["são paulo"]


def test_name_index_holds_the_exact_winner():
    entries = [
        GazetteerEntry("Zeta", ("X",), 1.0, 1.0),
        GazetteerEntry("Alpha", ("x.",), 2.0, 2.0),
        GazetteerEntry("Alpha", ("-x",), 3.0, 3.0),
    ]
    gaz = build_gazetteer(entries)
    # Keys keep their first appearance; each holds the smallest canonical
    # name, the earliest listed among equal names.
    assert list(gaz.name_index) == ["zeta", "x", "alpha"]
    zeta, alpha = Poi("Zeta", 1.0, 1.0), Poi("Alpha", 2.0, 2.0)
    assert [gaz.name_index[key] for key in ("zeta", "x", "alpha")] == [zeta, alpha, alpha]
    # One Poi per place, shared by all of its names.
    assert gaz.name_index["x"] is gaz.name_index["alpha"]
    assert geocode("X", gaz, max_edit=0) is gaz.name_index["alpha"]


def test_poi_rejects_out_of_range_coordinates():
    with pytest.raises(ValueError):
        Poi("nowhere", 91.0, 0.0)
    with pytest.raises(ValueError):
        Poi("nowhere", 0.0, 181.0)


def test_geocode_exact_match():
    poi = geocode("Boston", small_gazetteer(), max_edit=0)
    assert poi == Poi("Boston", 42.36, -71.06)


def test_geocode_exact_requires_zero_distance():
    gaz = small_gazetteer()
    assert geocode("Bostn", gaz, max_edit=0) is None
    assert geocode("boSTON", gaz, max_edit=0) is not None


def test_geocode_fuzzy_one_edit():
    assert geocode("Bostn", small_gazetteer(), max_edit=1) == Poi("Boston", 42.36, -71.06)


def test_geocode_no_close_name():
    assert geocode("Xyzzy", small_gazetteer(), max_edit=1) is None


def test_geocode_alternate_name_yields_canonical():
    poi = geocode("NYC", small_gazetteer(), max_edit=0)
    assert poi == Poi("New York", 40.71, -74.01)


def test_geocode_tie_breaks_lexicographically():
    gaz = build_gazetteer(
        [
            GazetteerEntry("Para", (), 1.0, 1.0),
            GazetteerEntry("Pera", (), 2.0, 2.0),
        ]
    )
    # "Pira" is one substitution from both; smaller canonical name wins.
    assert geocode("Pira", gaz, max_edit=1).name == "Para"


def test_geocode_prefers_smaller_distance_over_name_order():
    gaz = build_gazetteer(
        [
            GazetteerEntry("Aaaa", (), 1.0, 1.0),
            GazetteerEntry("Pisa", (), 2.0, 2.0),
        ]
    )
    assert geocode("Pira", gaz, max_edit=2).name == "Pisa"


def test_geocode_unaffected_by_distant_entries():
    gaz = small_gazetteer()
    before = geocode("Bostn", gaz, max_edit=1)
    extended = build_gazetteer(SMALL_ENTRIES + [GazetteerEntry("Zzyzx", (), 35.1, -116.1)])
    assert geocode("Bostn", extended, max_edit=1) == before


def test_geocode_rejects_empty_query():
    with pytest.raises(ValueError):
        geocode("", small_gazetteer())


def test_geocode_rejects_negative_max_edit():
    with pytest.raises(ValueError, match="max_edit"):
        geocode("Boston", small_gazetteer(), max_edit=-1)


@pytest.mark.parametrize("name", ["Bostn", "Boston"])
def test_geocode_rejects_max_edit_that_is_not_an_integer(name):
    # A float used to fail inside range() on a miss and pass on an exact hit.
    with pytest.raises(ValueError, match="max_edit"):
        geocode(name, small_gazetteer(), max_edit=2.0)


def test_geocode_tie_on_distance_and_name_goes_to_the_first_key():
    # "a a" is two edits from both keys; "aab" has the smaller lower bound and
    # is scored first, but "a" comes first in the name index.
    gaz = build_gazetteer(
        [
            GazetteerEntry("A", (), 0.0, 0.0),
            GazetteerEntry("A", ("AAb",), 1.0, 0.0),
        ]
    )
    assert list(gaz.name_index) == ["a", "aab"]
    assert geocode("A.A", gaz, max_edit=2) == Poi("A", 0.0, 0.0)


def test_fuzzy_index_is_built_by_the_first_fuzzy_query(fixtures_dir, patterns, corpus):
    gaz = load_gazetteer(str(fixtures_dir / "gazetteer.tsv"))
    assert extract_triplets(corpus, gaz, patterns)
    assert geocode("Boston", gaz, max_edit=2) is not None
    assert geocode("Bostn", gaz, max_edit=0) is None
    assert "fuzzy_index" not in vars(gaz)
    assert geocode("Bostn", gaz, max_edit=1) == geocode("Boston", gaz, max_edit=0)
    assert "fuzzy_index" in vars(gaz)


def test_geocode_query_without_letters_matches_nothing():
    gaz = build_gazetteer([GazetteerEntry("Ab", (), 1.0, 1.0)])
    # "!!!" normalizes to the empty string, which is two edits from "ab".
    assert geocode("!!!", gaz, max_edit=2) is None
    assert geocode("   ", gaz, max_edit=2) is None


def brute_force_geocode(name: str, entries: list[GazetteerEntry], max_edit: int) -> Poi | None:
    # Full scan of every entry's names with the oracle distance: minimum
    # (distance, canonical name), then the normalized name that appears first
    # in the entries, then the earliest listed entry.
    query = normalize_name(name)
    first_seen: dict[str, int] = {}
    hits = []
    for pos, entry in enumerate(entries):
        for variant in map(normalize_name, (entry.name, *entry.alt_names)):
            if variant:
                order = first_seen.setdefault(variant, len(first_seen))
                hits.append((edit_matrix(query, variant), entry.name, order, pos, entry))
    hits = [hit for hit in hits if hit[0] <= max_edit]
    if not query or not hits:
        return None
    entry = min(hits, key=lambda hit: hit[:4])[4]
    return Poi(entry.name, entry.lat, entry.lon)


# Few letters plus case, spaces and punctuation: names collide after
# normalization ("a-b", "A b") and are often a few edits apart. The fuzzy
# index counts code points modulo 32, so "a"/"á" and "m"/"中" share a bucket;
# "ß" is one more non-ASCII letter. Each gazetteer also gets up to three
# one-letter respellings of its names and up to two repeated canonical names.
_LETTERS = "abcmáß中"
_PLACE = st.text(_LETTERS + "ABÁ -.", min_size=1, max_size=7)


@st.composite
def gazetteer_entry_lists(draw):
    names = draw(st.lists(_PLACE, min_size=1, max_size=6))
    for name in draw(st.lists(st.sampled_from(names), max_size=3)):
        at = draw(st.integers(0, len(name) - 1))
        names.append(name[:at] + draw(st.sampled_from(_LETTERS)) + name[at + 1 :])
    names += draw(st.lists(st.sampled_from(names), max_size=2))
    return [
        GazetteerEntry(name, tuple(draw(st.lists(_PLACE, max_size=2))), float(pos), 0.0)
        for pos, name in enumerate(names)
    ]


@settings(max_examples=300)
@given(gazetteer_entry_lists(), _PLACE, st.integers(0, 4))
def test_geocode_matches_brute_force_scan(entries, query, max_edit):
    gaz = build_gazetteer(entries)
    poi = geocode(query, gaz, max_edit)
    assert poi == brute_force_geocode(query, entries, max_edit)
    # Exact and fuzzy answers alike are the index's own Poi, not a copy.
    assert poi is None or any(poi is indexed for indexed in gaz.name_index.values())


def test_load_single_row(tmp_path):
    path = tmp_path / "gaz.tsv"
    path.write_text("Boston\t\t42.36\t-71.06\n", encoding="utf-8")
    gaz = load_gazetteer(str(path))
    assert gaz.name_index == {"boston": Poi("Boston", 42.36, -71.06)}
    assert gaz.skipped_rows == 0


def test_load_builds_one_poi_per_place(tmp_path):
    path = tmp_path / "gaz.tsv"
    path.write_text("Boston\tBean Town, Beantown\t42.36\t-71.06\nAthens\t\t37.98\t23.73\n", encoding="utf-8")
    gaz = load_gazetteer(str(path))
    boston = gaz.name_index["boston"]
    assert boston == Poi("Boston", 42.36, -71.06)
    assert gaz.name_index["bean town"] is boston and gaz.name_index["beantown"] is boston
    assert geocode("Bostn", gaz) is boston


def test_load_counts_malformed_rows(tmp_path):
    path = tmp_path / "gaz.tsv"
    path.write_text("Boston\t\t42.36\t-71.06\nBad\trow\tonly\n", encoding="utf-8")
    gaz = load_gazetteer(str(path))
    assert list(gaz.name_index) == ["boston"]
    assert gaz.skipped_rows == 1


def test_load_skips_unparseable_coordinates(tmp_path):
    path = tmp_path / "gaz.tsv"
    path.write_text("Boston\t\t42.36\t-71.06\nOops\t\tnorth\t-71.0\n", encoding="utf-8")
    gaz = load_gazetteer(str(path))
    assert list(gaz.name_index) == ["boston"]
    assert gaz.skipped_rows == 1


def test_load_rejects_empty_file(tmp_path):
    path = tmp_path / "gaz.tsv"
    path.write_text("one\tbad\trow\n", encoding="utf-8")
    with pytest.raises(EmptyGazetteerError):
        load_gazetteer(str(path))


def test_load_ignores_comment_lines(tmp_path):
    path = tmp_path / "gaz.tsv"
    path.write_text(
        "# name\talts\tlat\tlon\nBoston\t\t42.36\t-71.06\n  #Bostonia\tBean Town\t10\t10\n",
        encoding="utf-8",
    )
    gaz = load_gazetteer(str(path))
    assert list(gaz.name_index) == ["boston"]
    assert gaz.skipped_rows == 0
    assert geocode("Bean Town", gaz, 0) is None


def test_load_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_gazetteer(str(tmp_path / "absent.tsv"))


def test_fixture_gazetteer_loads_fully(gazetteer, gazetteer_entries):
    assert len(gazetteer_entries) == 50
    assert gazetteer == build_gazetteer(gazetteer_entries)
    assert gazetteer.skipped_rows == 0


def test_fixture_every_canonical_name_resolves(gazetteer, gazetteer_entries):
    for entry in gazetteer_entries:
        poi = geocode(entry.name, gazetteer, max_edit=0)
        assert poi is not None
        assert poi.name == entry.name


def test_fixture_index_maps_each_name_to_its_winner(gazetteer_entries):
    for key, poi in build_gazetteer(gazetteer_entries).name_index.items():
        assert key == normalize_name(key)
        owners = [e for e in gazetteer_entries if key in map(normalize_name, (e.name, *e.alt_names))]
        winner = min(owners, key=lambda owner: owner.name)
        assert poi == Poi(winner.name, winner.lat, winner.lon)
