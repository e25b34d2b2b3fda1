"""Gazetteer loading and edit-distance toponym geocoding.

A gazetteer is a read-only table of named places. Each entry has one
canonical name, optional alternate names, and a WGS84 coordinate. Free-text
names are resolved against it with Levenshtein distance over normalized
strings; exact lookups go through a prebuilt name index.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

__all__ = [
    "EmptyGazetteerError",
    "Gazetteer",
    "GazetteerEntry",
    "Poi",
    "build_gazetteer",
    "geocode",
    "levenshtein",
    "load_gazetteer",
    "normalize_name",
]

_PUNCT = re.compile(r"[^\w\s]+")
_SPACE = re.compile(r"\s+")


class EmptyGazetteerError(ValueError):
    """Raised when a gazetteer source yields no valid entries."""


def _check_coords(lat: float, lon: float) -> None:
    if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
        raise ValueError(f"coordinates out of range: lat={lat} lon={lon}")


@dataclass(frozen=True)
class Poi:
    """A named point of interest with WGS84 coordinates."""

    name: str
    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("POI name must be non-empty")
        _check_coords(self.lat, self.lon)


@dataclass(frozen=True)
class GazetteerEntry:
    """One gazetteer row: canonical name, alternate names, coordinate."""

    name: str
    alt_names: tuple[str, ...]
    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("entry name must be non-empty")
        _check_coords(self.lat, self.lon)

    def all_names(self) -> tuple[str, ...]:
        return (self.name, *self.alt_names)


@dataclass
class Gazetteer:
    """Entries plus an index from normalized name to entry positions.

    Instances are treated as immutable after construction and may be shared
    freely across worker threads.
    """

    entries: list[GazetteerEntry]
    name_index: dict[str, list[int]]
    skipped_rows: int = 0

    def __len__(self) -> int:
        return len(self.entries)


def normalize_name(name: str) -> str:
    """Lowercase, replace punctuation with spaces, collapse whitespace."""
    return _SPACE.sub(" ", _PUNCT.sub(" ", name.lower())).strip()


def build_gazetteer(entries: list[GazetteerEntry], skipped_rows: int = 0) -> Gazetteer:
    index: dict[str, list[int]] = {}
    for pos, entry in enumerate(entries):
        for name in entry.all_names():
            key = normalize_name(name)
            if key:
                index.setdefault(key, []).append(pos)
    return Gazetteer(entries=entries, name_index=index, skipped_rows=skipped_rows)


def load_gazetteer(path: str) -> Gazetteer:
    """Load a gazetteer from a TSV file.

    Rows are ``name<TAB>alt_names<TAB>lat<TAB>lon`` with alternate names
    comma-separated (possibly empty); blank lines and lines starting with
    ``#`` are comments. Malformed rows are skipped and counted on the
    returned object; a file with zero valid rows is an error. Unreadable
    paths raise the underlying OSError.
    """
    entries: list[GazetteerEntry] = []
    skipped = 0
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 4:
                skipped += 1
                continue
            name, alt_field, lat_field, lon_field = fields
            try:
                lat, lon = float(lat_field), float(lon_field)
            except ValueError:
                skipped += 1
                continue
            alts = tuple(a.strip() for a in alt_field.split(",") if a.strip())
            try:
                entries.append(GazetteerEntry(name.strip(), alts, lat, lon))
            except ValueError:
                skipped += 1
    if not entries:
        raise EmptyGazetteerError(f"no valid gazetteer rows in {path}")
    return build_gazetteer(entries, skipped_rows=skipped)


def levenshtein(a: str, b: str) -> int:
    """Edit distance (insertions, deletions, substitutions all cost 1)."""
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(
                min(
                    previous[j] + 1,  # deletion
                    current[j - 1] + 1,  # insertion
                    previous[j - 1] + (ca != cb),  # substitution
                )
            )
        previous = current
    return previous[-1]


def geocode(name: str, gaz: Gazetteer, max_edit: int = 1) -> Poi | None:
    """Resolve a free-text name to the best-matching gazetteer entry.

    The winner minimizes edit distance between normalized names (canonical
    and alternates alike); ties prefer the lexicographically smaller
    canonical name. Returns None when no entry is within ``max_edit``.
    """
    if not name:
        raise ValueError("name must be non-empty")
    if max_edit < 0:
        raise ValueError("max_edit must be >= 0")
    query = normalize_name(name)
    best: tuple[int, str, GazetteerEntry] | None = None

    exact = gaz.name_index.get(query)
    if exact is not None:
        for pos in exact:
            entry = gaz.entries[pos]
            if best is None or entry.name < best[1]:
                best = (0, entry.name, entry)
    elif max_edit > 0:
        for variant, positions in gaz.name_index.items():
            dist = levenshtein(query, variant)
            if dist > max_edit:
                continue
            for pos in positions:
                entry = gaz.entries[pos]
                key = (dist, entry.name)
                if best is None or key < (best[0], best[1]):
                    best = (dist, entry.name, entry)
    if best is None:
        return None
    entry = best[2]
    return Poi(name=entry.name, lat=entry.lat, lon=entry.lon)
