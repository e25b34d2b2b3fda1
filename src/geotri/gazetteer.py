"""Gazetteer loading and edit-distance toponym geocoding.

A gazetteer is a read-only table of named places. Each entry has one
canonical name, optional alternate names, and a WGS84 coordinate. Free-text
names are resolved against it with Levenshtein distance over normalized
strings; exact lookups go through a prebuilt name index, and fuzzy lookups
score only the names that a letter-count lower bound keeps.
"""

from __future__ import annotations

import mmap
import re
import unicodedata
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

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
# The fuzzy index counts each name's code points modulo _BUCKETS.
_BUCKETS = 32


class EmptyGazetteerError(ValueError):
    """Raised when a gazetteer source yields no valid entries."""


def _check_coords(lat: float, lon: float, what: str = "coordinates") -> None:
    """Reject a latitude outside [-90, 90] or a longitude outside [-180, 180] (WGS84), NaN included."""
    if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
        raise ValueError(f"{what} out of range: lat={lat} lon={lon}")


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
    """One place for ``build_gazetteer``, which checks it as a ``Poi``: canonical name, alternate names, coordinate."""

    name: str
    alt_names: tuple[str, ...]
    lat: float
    lon: float


@dataclass(frozen=True)
class Gazetteer:
    """An index from each normalized name to its exact-match winner's Poi, one object per place.

    ``name_prefixes`` holds the word-prefixes of every multi-word key (its
    first 1..w-1 words), settled at construction. Instances are then
    immutable and thread-shareable; the ``fuzzy_index`` is derived on first
    use, and a race only builds it twice.
    """

    name_index: dict[str, Poi]
    skipped_rows: int = 0
    name_prefixes: set[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        prefixes: set[str] = set()
        for key in [key for key in self.name_index if " " in key]:
            # Longest prefix first: once one is known, so are all shorter ones.
            while " " in key:
                key = key.rpartition(" ")[0]
                if key in prefixes:
                    break
                prefixes.add(key)
        object.__setattr__(self, "name_prefixes", prefixes)

    @cached_property
    def fuzzy_index(self) -> tuple[list[str], np.ndarray, np.ndarray]:
        """``name_index`` keys in order, their lengths and their histograms, built by the first fuzzy lookup."""
        keys = list(self.name_index)
        return keys, *_histograms(keys)


def normalize_name(name: str) -> str:
    """Lowercase, compose to NFC, replace punctuation with spaces, collapse whitespace."""
    lowered = name.lower()
    # ASCII alphanumeric text is all word characters and NFC; a non-ASCII letter may not be NFC (U+1F71).
    if lowered.isalnum() and lowered.isascii():
        return lowered
    return _SPACE.sub(" ", _PUNCT.sub(" ", unicodedata.normalize("NFC", lowered))).strip()


def _build(places, skipped_rows: int) -> Gazetteer:
    """Index each normalized name of ``(poi, alt_names)`` places (first-seen order) to its winner."""
    index: dict[str, Poi] = {}
    for poi, alt_names in places:
        for name in (poi.name, *alt_names):
            key = normalize_name(name)
            if key and poi.name < index.setdefault(key, poi).name:
                index[key] = poi
    return Gazetteer(name_index=index, skipped_rows=skipped_rows)


def build_gazetteer(entries: list[GazetteerEntry]) -> Gazetteer:
    """Index each normalized name (first-seen order) to its winner's Poi: smallest canonical name, first listed."""
    return _build([(Poi(e.name, e.lat, e.lon), e.alt_names) for e in entries], 0)


def _code_points(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), "<i4")


def _histograms(keys: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Key lengths and code-point counts per bucket (int32, buckets × keys)."""
    lengths = np.fromiter(map(len, keys), np.int32, len(keys))
    points = _code_points("".join(keys))
    # Cells are numbered bucket-major, so one bucket's counts for every key
    # form a contiguous row. Sorting the cells counts them without a bincount
    # over every cell, whose int64 result is 8 bytes per cell.
    cells = points % _BUCKETS * len(keys) + np.repeat(np.arange(len(keys), dtype=np.int32), lengths)
    cells, counts = np.unique(cells, return_counts=True)
    # The histograms live as long as the gazetteer. Placed by malloc between
    # freed blocks they would stop glibc trimming the heap top; a zero-filled
    # mapping of their own leaves the process's heap as it was.
    size = _BUCKETS * len(keys)
    hists = np.frombuffer(mmap.mmap(-1, max(4 * size, 1)), np.int32, size)
    hists[cells] = counts
    return lengths, hists.reshape(_BUCKETS, len(keys))


def _check_count(name: str, value: object) -> None:
    if not isinstance(value, int) or value < 0:
        raise ValueError(f"{name} must be an integer >= 0, got {value!r}")


def _place(fields: list[str]) -> tuple[Poi, tuple[str, ...]] | None:
    if len(fields) != 4:
        return None
    name, alt_field, lat_field, lon_field = fields
    try:
        alts = tuple(filter(None, map(str.strip, alt_field.split(","))))
        return Poi(name.strip(), float(lat_field), float(lon_field)), alts
    except ValueError:
        return None


def load_gazetteer(path: str) -> Gazetteer:
    """Load a gazetteer from a TSV file.

    Rows are ``name<TAB>alt_names<TAB>lat<TAB>lon`` with alternate names
    comma-separated (possibly empty). Malformed rows are skipped and counted
    on the returned object; a file with zero valid rows is an error.
    Unreadable paths raise the underlying OSError.
    """
    rows = read_tsv(path, _place)
    places = [place for place in rows if place is not None]
    if not places:
        raise EmptyGazetteerError(f"no valid gazetteer rows in {path}")
    return _build(places, skipped_rows=len(rows) - len(places))


def levenshtein(a: str, b: str, limit: int) -> int:
    """Edit distance (insertions, deletions, substitutions all cost 1), capped at ``limit + 1``.

    With ``limit=k`` the result is exact when it is at most k and k + 1
    otherwise. Only the diagonals t = j - i with |t| + |t + len(a) - len(b)|
    <= k are filled, because no path costing at most k leaves them (Ukkonen
    1985), and the scan stops at the first row whose band exceeds k, because
    cells never decrease along an edit path.
    """
    _check_count("limit", limit)
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    k, m, skew = limit, len(b), len(a) - len(b)
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
    """Resolve a free-text name to the best-matching gazetteer place's Poi.

    The winner minimizes edit distance between normalized names (canonical
    and alternates alike); ties prefer the lexicographically smaller
    canonical name, then the name that comes first in ``name_index``.
    Returns None when no entry is within ``max_edit`` or the name
    normalizes to the empty string.

    A fuzzy lookup scores only the keys whose lower bound
    max(len q, len s) - sum_b min(h_q[b], h_s[b]) = (L1(h_q - h_s) +
    |len q - len s|) / 2 on the code-point histograms is within
    ``max_edit``, smallest bound first, until the bound exceeds the best
    distance found. One edit moves that L1 sum by at most 2 (the frequency
    distance of Kahveci & Singh 2001).
    """
    if not name:
        raise ValueError("name must be non-empty")
    _check_count("max_edit", max_edit)
    query = normalize_name(name)
    if not query:
        return None
    poi = gaz.name_index.get(query)
    if poi is None and max_edit > 0:
        keys, lengths, hists = gaz.fuzzy_index
        # Code points each key can share with the query, one bucket at a time:
        # only the query's own buckets count.
        query_hist = np.bincount(_code_points(query) % _BUCKETS, minlength=_BUCKETS)
        shared = np.zeros(len(keys), np.int32)
        for bucket, count in enumerate(query_hist.tolist()):
            if count:
                shared += np.minimum(hists[bucket], count)
        lows = np.maximum(lengths, len(query)) - shared
        rows = np.flatnonzero(lows <= max_edit)
        rows = rows[np.argsort(lows[rows], kind="stable")]
        # The limit shrinks to the best distance so far; names at exactly that
        # distance are still scored, for the tie-break on name and key order.
        limit, best = max_edit, None
        for row, low in zip(rows.tolist(), lows[rows].tolist()):
            if low > limit:
                break
            dist = levenshtein(query, keys[row], limit)
            if dist > limit:
                continue
            limit = dist
            match = gaz.name_index[keys[row]]
            if best is None or (dist, match.name, row) < best:
                best, poi = (dist, match.name, row), match
    return poi
