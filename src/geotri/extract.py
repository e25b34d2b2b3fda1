"""Relation triplet extraction from narrative text.

The pipeline mirrors how a travel blog gets mined: split text into
sentences, tokenize, tag place mentions against a gazetteer (longest match
first, a span growing while it starts some name), and test each pair of
mentions that are adjacent in the text. A pair becomes a triplet (subject,
relation, object) only when the token-class sequence of the gap between
the mentions matches a configured syntactic pattern, and a connector
phrase for some relation label occurs inside the gap. Requiring both
checks keeps sentences like "Deutsche Bank invested 10 million dollars in
Brazil" from producing a bogus containment triplet. A gap longer than the
longest pattern's gap is rejected before its tokens are classed.
``extract_triplets`` tags on plain (start, end, place) span tuples and
matches each distinct gap, keyed by its exact tokens, once per call.

Token classes are approximated with small closed word lists (prepositions,
copular/3rd-person verbs, determiners, direction words, and so on) plus an
ENTITY class for tagged mentions; anything unknown maps to UNK.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass, field

from .atomic import read_tsv, write_tsv
from .gazetteer import Gazetteer, Poi, normalize_name

__all__ = [
    "EntitySpan",
    "PatternSet",
    "Triplet",
    "extract_triplets",
    "load_patterns",
    "match_relation",
    "read_triplets_tsv",
    "split_sentences",
    "tag_entities",
    "token_class",
    "tokenize",
    "write_triplets_tsv",
]

_TOKEN = re.compile(r"\w+(?:['’]\w+)*|[^\w\s]")
# A terminator run is tried only from its first mark, so a long run costs linear time.
_BOUNDARY = re.compile(r"([.!?](?<![.!?]{2})[.!?]*)(\s+)")
# Matched on the reversed text: the word run just before a position, past any non-word characters.
_WORD_BEFORE = re.compile(r"\W*(\w+)")
_WORD = re.compile(r"\w")

# Sentence terminators after these words are abbreviation dots, not boundaries.
_ABBREVIATIONS = frozenset(
    {"dr", "mr", "mrs", "ms", "prof", "st", "mt", "ft", "jr", "sr", "vs", "etc", "eg", "ie", "no"}
)

_CLASS_WORDS: dict[str, frozenset[str]] = {
    "DT": frozenset({"the", "a", "an"}),
    "WDT": frozenset({"which", "that", "who"}),
    "TO": frozenset({"to"}),
    "DIR": frozenset(
        {"north", "south", "east", "west", "northeast", "northwest", "southeast", "southwest"}
    ),
    "JJ": frozenset({"next", "close", "adjacent", "nearby"}),
    "RB": frozenset({"just", "right", "directly", "immediately", "far"}),
    "VBN": frozenset({"located", "situated", "nestled", "positioned", "perched"}),
    "IN": frozenset(
        {
            "in",
            "near",
            "at",
            "on",
            "by",
            "of",
            "within",
            "inside",
            "outside",
            "beside",
            "under",
            "over",
            "behind",
            "around",
            "along",
            "across",
            "from",
            "between",
            "opposite",
        }
    ),
    "VBZ": frozenset({"is", "lies", "sits", "stands", "remains", "rests"}),
}

_KNOWN_CLASSES = frozenset(_CLASS_WORDS) | {"ENTITY", "PUNCT", "UNK"}
_WORD_CLASS = {word: tag for tag, words in _CLASS_WORDS.items() for word in words}


def split_sentences(text: str) -> list[str]:
    """Split on ., ! or ? followed by whitespace, guarding abbreviations.

    The word before a lone "." is read backwards from it, never past the
    previous dot checked, so the split takes linear time.
    """
    sentences: list[str] = []
    start = checked = 0
    backwards = text[::-1]
    for match in _BOUNDARY.finditer(text):
        if match.group(1) == ".":
            # A dot checked after ``start`` was an abbreviation's; with no word since, this one is too.
            floor, checked = max(start, checked), match.start()
            word = _WORD_BEFORE.match(backwards, len(text) - checked, len(text) - floor)
            if word.group(1)[::-1].lower() in _ABBREVIATIONS if word else floor > start:
                continue
        piece = text[start : match.end(1)].strip()
        if piece:
            sentences.append(piece)
        start = match.end()
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


def tokenize(sentence: str) -> list[str]:
    """Words (apostrophes kept) and punctuation marks as separate tokens, of the sentence composed to NFC."""
    return _TOKEN.findall(unicodedata.normalize("NFC", sentence))


def token_class(token: str) -> str:
    """Map a gap token onto its closed-class tag (UNK when unlisted)."""
    if not token.isalnum() and not _WORD.search(token):
        return "PUNCT"
    lowered = token.lower()
    if lowered in _WORD_CLASS:
        return _WORD_CLASS[lowered]
    # Treat remaining s-suffixed words as 3rd-person verb forms.
    if lowered.isalpha() and len(lowered) > 2 and lowered.endswith("s"):
        return "VBZ"
    return "UNK"


@dataclass(frozen=True)
class EntitySpan:
    """A gazetteer mention occupying tokens [token_start, token_end)."""

    token_start: int
    token_end: int
    poi: Poi

    def __post_init__(self) -> None:
        if not (0 <= self.token_start < self.token_end):
            raise ValueError("span bounds must satisfy 0 <= start < end")


@dataclass(frozen=True)
class Triplet:
    """One extracted relation: subject stands in ``relation`` to object."""

    subject: Poi
    relation: str
    object: Poi

    def __post_init__(self) -> None:
        if not self.relation:
            raise ValueError("relation label must be non-empty")
        if self.subject.name == self.object.name:
            raise ValueError("subject and object must differ")


@dataclass(frozen=True)
class PatternSet:
    """Syntactic patterns plus per-label connector phrases.

    ``syntactic_patterns`` holds token-class sequences with an ENTITY slot
    at each end; ``relation_strings`` maps each relation label to the
    connector phrases (token tuples) that assert it. Derived: ``max_gap``,
    the longest pattern's gap length, and ``phrases``, each connector as
    space-padded text with its label, longest first, then by label.
    """

    syntactic_patterns: tuple[tuple[str, ...], ...]
    relation_strings: dict[str, tuple[tuple[str, ...], ...]]
    max_gap: int = field(init=False)
    phrases: tuple[tuple[str, str], ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for pattern in self.syntactic_patterns:
            if pattern.count("ENTITY") != 2:
                raise ValueError(f"pattern needs exactly two ENTITY slots: {pattern}")
            if pattern[0] != "ENTITY" or pattern[-1] != "ENTITY":
                raise ValueError(f"pattern must start and end with ENTITY: {pattern}")
            if len(pattern) == 2:
                raise ValueError(f"pattern needs a token class between its ENTITY slots: {pattern}")
            unknown = set(pattern) - _KNOWN_CLASSES
            if unknown:
                raise ValueError(f"unknown token classes {sorted(unknown)} in {pattern}")
        for label, connectors in self.relation_strings.items():
            if not label or label != label.lower():
                raise ValueError(f"labels must be non-empty and lowercase: {label!r}")
            # A gap's text is lowercased NFC tokens, so any other connector word could never match.
            if not connectors or any(not c or any(w != w.lower() or tokenize(w) != [w] for w in c) for c in connectors):
                raise ValueError(f"label {label!r} needs connector phrases of whitespace-free lowercase tokens")
        object.__setattr__(self, "max_gap", max(map(len, self.syntactic_patterns), default=2) - 2)
        ranked = sorted((-len(c), label, " ".join(c)) for label, cs in self.relation_strings.items() for c in cs)
        object.__setattr__(self, "phrases", tuple((f" {text} ", label) for _, label, text in ranked))


def _rule(fields: list[str]) -> tuple[str, tuple[str, ...], tuple[str, ...]]:
    if len(fields) != 3:
        raise ValueError("expected 3 tab-separated columns")
    label, connector, pattern = fields
    label, connector, pattern = label.strip().lower(), tuple(connector.lower().split()), tuple(pattern.split())
    PatternSet((pattern,), {label: (connector,)})  # check the row while its line number is known
    return label, connector, pattern


def load_patterns(path: str) -> PatternSet:
    """Read rules, one per line: ``label<TAB>connector<TAB>pattern``.

    The pattern column is a space-separated token-class sequence. Patterns
    are pooled across lines; connectors accumulate per label.
    """
    patterns: list[tuple[str, ...]] = []
    strings: dict[str, list[tuple[str, ...]]] = {}
    for label, connector, pattern in read_tsv(path, _rule):
        if pattern not in patterns:
            patterns.append(pattern)
        bucket = strings.setdefault(label, [])
        if connector not in bucket:
            bucket.append(connector)
    return PatternSet(tuple(patterns), {label: tuple(c) for label, c in strings.items()})


def tag_entities(tokens: list[str], gaz: Gazetteer) -> list[EntitySpan]:
    """Greedy longest-match gazetteer tagging, left to right.

    Candidate spans never include punctuation tokens (normalization would
    otherwise let "Rio de Janeiro ," shadow the comma) and must match an
    indexed name exactly. A span's key is the space-join of its tokens'
    keys, each normalized once. From each start the span grows one token at
    a time while its key is a word-prefix of some name
    (``gaz.name_prefixes``) and takes the longest key found in the index, so
    a token that starts no multi-word name costs two hash lookups, however
    long the names are.
    """
    return [EntitySpan(*span) for span in _spans(tokens, gaz)]


def _spans(tokens: list[str], gaz: Gazetteer) -> list[tuple[int, int, Poi]]:
    """``tag_entities`` as ``(token_start, token_end, poi)`` tuples."""
    # An ASCII alphanumeric token is its own key lowercased, as normalize_name's fast path gives.
    keys = [token.lower() if token.isascii() and token.isalnum() else normalize_name(token) or None for token in tokens]
    keys.append(None)  # ends the last span at the end of the sentence
    index, prefixes = gaz.name_index, gaz.name_prefixes
    spans: list[tuple[int, int, Poi]] = []
    i = 0
    n = len(tokens)
    while i < n:
        key = keys[i]
        poi = index.get(key)
        end = stop = i + 1
        while key in prefixes and keys[stop] is not None:
            key = f"{key} {keys[stop]}"
            stop += 1
            if key in index:
                poi, end = index[key], stop
        if poi is None:
            i += 1
        else:
            spans.append((i, end, poi))
            i = end
    return spans


def match_relation(
    tokens: list[str],
    left: EntitySpan,
    right: EntitySpan,
    patterns: PatternSet,
) -> str | None:
    """Relation label asserted between two mentions, or None.

    The gap's class sequence (with ENTITY at both ends) must equal a
    configured pattern, and a connector phrase must occur contiguously
    inside the gap. When several labels' connectors match, the longest
    connector wins, then the lexicographically smaller label.
    """
    if left.token_end > right.token_start:
        raise ValueError("left span must precede right span without overlap")
    gap = tokens[left.token_end : right.token_start]
    return None if len(gap) > patterns.max_gap else _relation(gap, patterns)


def _relation(gap: list[str] | tuple[str, ...], patterns: PatternSet) -> str | None:
    """``match_relation``'s pattern and connector test on the gap's tokens."""
    sequence = ("ENTITY", *[token_class(t) for t in gap], "ENTITY")
    if sequence not in patterns.syntactic_patterns:
        return None
    # Tokens and connector words hold no whitespace, so a phrase occurs in
    # the gap exactly when its space-padded text is a substring.
    text = f" {' '.join(gap).lower()} "
    return next((label for phrase, label in patterns.phrases if phrase in text), None)


def extract_triplets(corpus, gaz: Gazetteer, patterns: PatternSet) -> list[Triplet]:
    """Run the full pipeline over an iterable of texts.

    Only mention pairs adjacent in the text are tested, in reading order;
    pairs whose mentions resolve to the same place are dropped. Output
    order follows text, sentence, and pair order, so repeated runs over the
    same corpus are identical.
    """
    triplets: list[Triplet] = []
    relations: dict[tuple[str, ...], str | None] = {}
    for text in corpus:
        for tokens in map(tokenize, split_sentences(text)):
            spans = _spans(tokens, gaz)
            for (_, end, left), (start, _, right) in zip(spans, spans[1:]):
                if start - end > patterns.max_gap or left.name == right.name:
                    continue
                gap = tuple(tokens[end:start])
                if gap not in relations:
                    relations[gap] = _relation(gap, patterns)
                label = relations[gap]
                if label is not None:
                    triplets.append(Triplet(left, label, right))
    return triplets


def write_triplets_tsv(triplets, path) -> None:
    """Write ``subject relation object subject_lat subject_lon object_lat object_lon``."""
    rows = (
        (t.subject.name, t.relation, t.object.name, t.subject.lat, t.subject.lon, t.object.lat, t.object.lon)
        for t in triplets
    )
    write_tsv(path, rows)


def _triplet(fields: list[str]) -> Triplet:
    if len(fields) != 7:
        raise ValueError(f"expected 7 columns, got {len(fields)}")
    subject = Poi(fields[0], float(fields[3]), float(fields[4]))
    obj = Poi(fields[2], float(fields[5]), float(fields[6]))
    return Triplet(subject, fields[1], obj)


def read_triplets_tsv(path: str) -> list[Triplet]:
    """Read a triplet TSV back; source sentences are not stored."""
    return read_tsv(path, _triplet)
