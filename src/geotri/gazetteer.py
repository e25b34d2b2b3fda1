"""Gazetteer loading and edit-distance toponym geocoding.

A gazetteer is a read-only table of named places. Each entry has one
canonical name, optional alternate names, and a WGS84 coordinate. Free-text
names are resolved against it with Levenshtein distance over normalized
strings; exact lookups go through a prebuilt name index.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .atomic import read_tsv

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


@dataclass(frozen=True)
class Gazetteer:
    """Entries plus an index from normalized name to entry positions.

    ``max_words`` is the word count of the longest indexed name, derived
    from ``name_index``. Instances are treated as immutable after
    construction and may be shared freely across worker threads.
    """

    entries: list[GazetteerEntry]
    name_index: dict[str, list[int]]
    skipped_rows: int = 0
    max_words: int = field(init=False)

    def __post_init__(self) -> None:
        words = max((key.count(" ") + 1 for key in self.name_index), default=0)
        object.__setattr__(self, "max_words", words)

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


def _entry(fields: list[str]) -> GazetteerEntry | None:
    if len(fields) != 4:
        return None
    name, alt_field, lat_field, lon_field = fields
    try:
        alts = tuple(a.strip() for a in alt_field.split(",") if a.strip())
        return GazetteerEntry(name.strip(), alts, float(lat_field), float(lon_field))
    except ValueError:
        return None


def load_gazetteer(path: str) -> Gazetteer:
    """Load a gazetteer from a TSV file.

    Rows are ``name<TAB>alt_names<TAB>lat<TAB>lon`` with alternate names
    comma-separated (possibly empty). Malformed rows are skipped and counted
    on the returned object; a file with zero valid rows is an error.
    Unreadable paths raise the underlying OSError.
    """
    rows = read_tsv(path, _entry)
    entries = [entry for entry in rows if entry is not None]
    if not entries:
        raise EmptyGazetteerError(f"no valid gazetteer rows in {path}")
    return build_gazetteer(entries, skipped_rows=len(rows) - len(entries))


def levenshtein(a: str, b: str, limit: int | None = None) -> int:
    """Edit distance (insertions, deletions, substitutions all cost 1).

    With ``limit=k`` the result is exact when it is at most k and k + 1
    otherwise. Only the diagonals t = j - i with |t| + |t + len(a) - len(b)|
    <= k are filled, because no path costing at most k leaves them (Ukkonen
    1985), and the scan stops at the first row whose band exceeds k, because
    cells never decrease along an edit path.
    """
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    k = len(a) if limit is None else limit
    m, skew = len(b), len(a) - len(b)
    if skew > k:
        return k + 1
    over, below, above = k + 1, (k + skew) // 2, (k - skew) // 2
    row = list(range(m + 1))
    for i, ca in enumerate(a, start=1):
        lo = i - below if i > below else 1
        diag = row[lo - 1]
        left = low = row[lo - 1] = i if lo == 1 else over
        for j in range(lo, i + above + 1 if i + above < m else m + 1):
            up = row[j]
            cost = diag if ca == b[j - 1] else diag + 1
            if up < cost:
                cost = up + 1
            if left < cost:
                cost = left + 1
            row[j] = left = cost
            diag = up
            if cost < low:
                low = cost
        if low > k:
            return over
    return row[m] if row[m] < over else over


def geocode(name: str, gaz: Gazetteer, max_edit: int = 1) -> Poi | None:
    """Resolve a free-text name to the best-matching gazetteer entry.

    The winner minimizes edit distance between normalized names (canonical
    and alternates alike); ties prefer the lexicographically smaller
    canonical name. Returns None when no entry is within ``max_edit`` or
    the name normalizes to the empty string.
    """
    if not name:
        raise ValueError("name must be non-empty")
    if max_edit < 0:
        raise ValueError("max_edit must be >= 0")
    query = normalize_name(name)
    if not query:
        return None
    best: tuple[int, str, GazetteerEntry] | None = None

    exact = gaz.name_index.get(query)
    if exact is not None:
        for pos in exact:
            entry = gaz.entries[pos]
            if best is None or entry.name < best[1]:
                best = (0, entry.name, entry)
    elif max_edit > 0:
        # The bound shrinks to the best distance so far; names at exactly
        # that distance are still scored, for the tie-break on name.
        bound = max_edit
        for variant, positions in gaz.name_index.items():
            if abs(len(variant) - len(query)) > bound:
                continue
            dist = levenshtein(query, variant, bound)
            if dist > bound:
                continue
            bound = dist
            for pos in positions:
                entry = gaz.entries[pos]
                key = (dist, entry.name)
                if best is None or key < (best[0], best[1]):
                    best = (dist, entry.name, entry)
    if best is None:
        return None
    entry = best[2]
    return Poi(name=entry.name, lat=entry.lat, lon=entry.lon)
