"""Relation triplet extraction from narrative text.

The pipeline mirrors how a travel blog gets mined: split text into
sentences, tokenize, tag place mentions against a gazetteer (longest match
first, up to the gazetteer's longest name), and test each pair of mentions
that are adjacent in the text. A pair becomes a triplet (subject, relation,
object) only when the token-class sequence of the gap between the mentions
matches a configured syntactic pattern, and a connector phrase for some
relation label occurs inside the gap. Requiring both checks keeps sentences
like "Deutsche Bank invested 10 million dollars in Brazil" from producing a
bogus containment triplet. A gap longer than the longest pattern's gap is
rejected before its tokens are classed.

Token classes are approximated with small closed word lists (prepositions,
copular/3rd-person verbs, determiners, direction words, and so on) plus an
ENTITY class for tagged mentions; anything unknown maps to UNK.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .atomic import read_tsv, write_tsv
from .gazetteer import Gazetteer, Poi, geocode

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

_TOKEN = re.compile(r"\w+(?:'\w+)?|[^\w\s]")
_BOUNDARY = re.compile(r"([.!?]+)(\s+)")
_WORD_BEFORE = re.compile(r"(\w+)\W*$")

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
    """Split on ., ! or ? followed by whitespace, guarding abbreviations."""
    sentences: list[str] = []
    start = 0
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
    if tail:
        sentences.append(tail)
    return sentences


def tokenize(sentence: str) -> list[str]:
    """Words (apostrophes kept) and punctuation marks as separate tokens."""
    return _TOKEN.findall(sentence)


def token_class(token: str) -> str:
    """Map a gap token onto its closed-class tag (UNK when unlisted)."""
    if not re.search(r"\w", token):
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
    surface: str
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
    source_sentence: str = ""

    def __post_init__(self) -> None:
        if self.subject.name == self.object.name:
            raise ValueError("subject and object must differ")


@dataclass(frozen=True)
class PatternSet:
    """Syntactic patterns plus per-label connector phrases.

    ``syntactic_patterns`` holds token-class sequences with an ENTITY slot
    at each end; ``relation_strings`` maps each relation label to the
    connector phrases (token tuples) that assert it. ``max_gap``, the gap
    length of the longest pattern, is derived from the patterns.
    """

    syntactic_patterns: tuple[tuple[str, ...], ...]
    relation_strings: dict[str, tuple[tuple[str, ...], ...]]
    max_gap: int = field(init=False)

    def __post_init__(self) -> None:
        for pattern in self.syntactic_patterns:
            if pattern.count("ENTITY") != 2:
                raise ValueError(f"pattern needs exactly two ENTITY slots: {pattern}")
            if pattern[0] != "ENTITY" or pattern[-1] != "ENTITY":
                raise ValueError(f"pattern must start and end with ENTITY: {pattern}")
            unknown = set(pattern) - _KNOWN_CLASSES
            if unknown:
                raise ValueError(f"unknown token classes {sorted(unknown)} in {pattern}")
        for label, connectors in self.relation_strings.items():
            if not label or label != label.lower():
                raise ValueError(f"labels must be non-empty and lowercase: {label!r}")
            if not connectors or any(not c for c in connectors):
                raise ValueError(f"label {label!r} needs non-empty connector phrases")
        object.__setattr__(self, "max_gap", max(map(len, self.syntactic_patterns), default=2) - 2)


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
    otherwise let "Rio de Janeiro ," shadow the comma) and must geocode
    exactly (edit distance 0) after normalization. Every other token
    normalizes to at least one word, so no span longer than
    ``gaz.max_words`` tokens can match and none is tried.
    """
    spans: list[EntitySpan] = []
    punct = [token_class(t) == "PUNCT" for t in tokens]
    i = 0
    n = len(tokens)
    while i < n:
        found = None
        for length in range(min(gaz.max_words, n - i), 0, -1):
            if any(punct[i : i + length]):
                continue
            surface = " ".join(tokens[i : i + length])
            poi = geocode(surface, gaz, max_edit=0)
            if poi is not None:
                found = EntitySpan(i, i + length, surface, poi)
                break
        if found is not None:
            spans.append(found)
            i = found.token_end
        else:
            i += 1
    return spans


def _contains_phrase(gap: list[str], phrase: tuple[str, ...]) -> bool:
    width = len(phrase)
    return any(tuple(gap[k : k + width]) == phrase for k in range(len(gap) - width + 1))


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
    if len(gap) > patterns.max_gap:
        return None
    sequence = ("ENTITY", *[token_class(t) for t in gap], "ENTITY")
    if sequence not in patterns.syntactic_patterns:
        return None
    gap_lower = [t.lower() for t in gap]
    matched: list[tuple[int, str]] = []
    for label, connectors in patterns.relation_strings.items():
        for connector in connectors:
            if _contains_phrase(gap_lower, connector):
                matched.append((-len(connector), label))
                break
    if not matched:
        return None
    return min(matched)[1]


def extract_triplets(corpus, gaz: Gazetteer, patterns: PatternSet) -> list[Triplet]:
    """Run the full pipeline over an iterable of texts.

    Only mention pairs adjacent in the text are tested, in reading order;
    pairs whose mentions resolve to the same place are dropped. Output
    order follows text, sentence, and pair order, so repeated runs over the
    same corpus are identical.
    """
    triplets: list[Triplet] = []
    for text in corpus:
        for sentence in split_sentences(text):
            tokens = tokenize(sentence)
            spans = tag_entities(tokens, gaz)
            if len(spans) < 2:
                continue
            for left, right in zip(spans, spans[1:]):
                label = match_relation(tokens, left, right, patterns)
                if label is None or left.poi.name == right.poi.name:
                    continue
                triplets.append(Triplet(left.poi, label, right.poi, sentence))
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
