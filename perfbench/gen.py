"""Seeded input generators for the geotri benchmark.

Every generator takes the workload seed (plus a block index and a round
where a workload consumes inputs block by block, round after round) and
returns plain data: strings, tuples and numpy arrays. The same arguments always give byte-identical
inputs. Nothing here calls into geotri except where a generator is
defined in terms of a program function (``synth.consistent_scenario``,
``synth.synthetic_city_models``), so the program under test only ever
receives finished inputs.
"""

from __future__ import annotations

import numpy as np

# Gazetteer region: large enough that generated places never coincide.
GAZ_BBOX = (35.0, 0.0, 45.0, 20.0)

_ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "t", "v", "z", "br", "dr", "gr", "kr", "tr")
_VOWELS = ("a", "e", "i", "o", "u")
_CODAS = ("", "", "", "l", "m", "n", "r", "k", "t")

# Words the corpus uses outside place names, by token class. Place-name words
# are rejected when they collide with any of these.
CLASS_WORDS = {
    "VBZ": ("is", "lies", "sits", "stands", "rests"),
    "IN": ("near", "at", "in", "of"),
    "DT": ("the",),
    "WDT": ("which",),
    "RB": ("just", "directly", "immediately"),
    "VBN": ("located", "situated", "nestled"),
    "JJ": ("next", "close"),
    "TO": ("to",),
    "DIR": ("north", "south", "east", "west", "northeast", "northwest", "southeast", "southwest"),
    "PUNCT": (",",),
}
_FILLER = ("the", "weather", "was", "mild", "and", "dry", "we", "walked", "for", "hours",
           "invested", "million", "dollars", "says", "apart", "are", "far", "dr", "mr", "prof")
_RESERVED = frozenset(w for words in CLASS_WORDS.values() for w in words) | frozenset(_FILLER)
_PERSONS = ("Haddad", "Wexler", "Jansen", "Yilmaz", "Castell", "Holm")  # no place-name onset
_TITLES = ("Dr.", "Mr.", "Prof.")


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """Independent generator for one (seed, stream...) tuple."""
    return np.random.default_rng([seed, *stream])


def _word(rng: np.random.Generator) -> str:
    parts = []
    for _ in range(int(rng.integers(2, 4))):
        parts.append(_ONSETS[rng.integers(len(_ONSETS))])
        parts.append(_VOWELS[rng.integers(len(_VOWELS))])
        parts.append(_CODAS[rng.integers(len(_CODAS))])
    return "".join(parts)


def _place_name(rng: np.random.Generator, words: int) -> str:
    return " ".join(_word(rng).capitalize() for _ in range(words))


def make_gazetteer(seed: int, n_names: int) -> list[tuple[str, tuple[str, ...], float, float]]:
    """Entries (name, alternates, lat, lon) with globally unique normalized names.

    About a third of the names have two or three words and about half of the
    entries carry one or two alternate names.
    """
    rng = rng_for(seed, 1)
    taken: set[str] = set()
    entries = []

    def fresh(words: int) -> str:
        while True:
            name = _place_name(rng, words)
            key = name.lower()
            if key not in taken and not (set(key.split()) & _RESERVED):
                taken.add(key)
                return name

    for _ in range(n_names):
        name = fresh(int(rng.choice([1, 2, 3], p=[0.65, 0.25, 0.10])))
        alts = tuple(fresh(int(rng.choice([1, 2]))) for _ in range(int(rng.choice([0, 1, 2], p=[0.5, 0.35, 0.15]))))
        lat = round(float(rng.uniform(GAZ_BBOX[0], GAZ_BBOX[2])), 5)
        lon = round(float(rng.uniform(GAZ_BBOX[1], GAZ_BBOX[3])), 5)
        entries.append((name, alts, lat, lon))
    return entries


def gazetteer_tsv(entries) -> str:
    return "".join(f"{n}\t{','.join(a)}\t{lat!r}\t{lon!r}\n" for n, a, lat, lon in entries)


def read_pattern_rows(path: str) -> list[tuple[str, tuple[str, ...], tuple[str, ...]]]:
    """(label, connector tokens, middle token classes) per rule line."""
    rows = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip() or line.startswith("#"):
                continue
            label, connector, shape = line.rstrip("\n").split("\t")
            rows.append((label, tuple(connector.split()), tuple(shape.split())[1:-1]))
    return rows


def _class_of(word: str) -> str:
    return next(tag for tag, words in CLASS_WORDS.items() if word in words)


def _gap(rng: np.random.Generator, connector: tuple[str, ...], middle: tuple[str, ...]) -> list[str]:
    """Realize a token-class sequence with the connector phrase in place."""
    classes = tuple(_class_of(w) for w in connector)
    width = len(connector)
    start = next(i for i in range(len(middle) - width + 1) if middle[i : i + width] == classes)
    words = []
    for i, tag in enumerate(middle):
        if start <= i < start + width:
            words.append(connector[i - start])
        else:
            if tag in ("IN", "JJ", "TO", "DIR"):
                raise ValueError(f"rule needs a connector-class filler: {middle}")
            fillers = CLASS_WORDS[tag]
            words.append(fillers[rng.integers(len(fillers))])
    return words


def _sentence(words: list[str]) -> str:
    text = " ".join(words).replace(" ,", ",")
    return text + "."


def make_corpus(seed: int, block: int, entries, rules, n_texts: int, rnd: int = 0):
    """Texts plus the (subject, relation, object) triplets each must yield.

    Sentence kinds: a relation from one rule line; a relation chained with
    ", which is in"; a rejected pair ("invested ... in"); a relation behind
    an abbreviated title ("Dr. X says A is near B"); and filler text.
    Mentions use canonical or alternate names, so tagging exercises both.
    """
    rng = rng_for(seed, 2, block, rnd)
    in_rule = next(r for r in rules if r[0] == "in" and r[2][0] == "PUNCT")
    plain_rules = [r for r in rules if r[2][0] != "PUNCT"]

    def mention(index: int) -> str:
        name, alts, _, _ = entries[index]
        surfaces = (name, *alts)
        return surfaces[rng.integers(len(surfaces))]

    def places(k: int) -> list[int]:
        return [int(i) for i in rng.choice(len(entries), size=k, replace=False)]

    texts, expected = [], []
    for _ in range(n_texts):
        sentences, triplets = [], []
        for _ in range(int(rng.integers(1, 4))):
            kind = rng.choice(5, p=[0.45, 0.15, 0.15, 0.1, 0.15])
            if kind == 4:
                sentences.append("The weather was mild and we walked for hours.")
                continue
            a, b, c = places(3)
            label, connector, middle = plain_rules[rng.integers(len(plain_rules))]
            relation = [mention(a), *_gap(rng, connector, middle), mention(b)]
            if kind == 0:
                sentences.append(_sentence(relation))
                triplets.append((entries[a][0], label, entries[b][0]))
            elif kind == 1:
                chain = _gap(rng, in_rule[1], in_rule[2])
                sentences.append(_sentence([*relation, *chain, mention(c)]))
                triplets += [(entries[a][0], label, entries[b][0]), (entries[b][0], "in", entries[c][0])]
            elif kind == 2:
                amount = int(rng.integers(2, 90))
                sentences.append(_sentence([mention(a), "invested", str(amount), "million", "dollars", "in", mention(b)]))
            else:
                title = _TITLES[rng.integers(len(_TITLES))]
                person = _PERSONS[rng.integers(len(_PERSONS))]
                sentences.append(_sentence([title, person, "says", *relation]))
                triplets.append((entries[a][0], label, entries[b][0]))
        texts.append(" ".join(sentences))
        expected.append(triplets)
    return texts, expected


def levenshtein(a: str, b: str) -> int:
    """Reference edit distance, independent of the program's implementation."""
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        current = [i]
        for j, cb in enumerate(b, 1):
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + (ca != cb)))
        previous = current
    return previous[-1]


class NameIndex:
    """Finds every gazetteer key within edit distance 2 of a query.

    Edit distance is at least half the L1 distance between letter
    histograms and at least the length difference, so only keys passing
    both bounds need the exact distance.
    """

    _ALPHABET = "abcdefghijklmnopqrstuvwxyz "

    def __init__(self, entries):
        self.keys, self.owner = [], []
        for name, alts, _, _ in entries:
            for surface in (name, *alts):
                self.keys.append(surface.lower())
                self.owner.append(name)
        self.hist = np.stack([self._hist(k) for k in self.keys])
        self.lengths = np.array([len(k) for k in self.keys])

    def _hist(self, text: str) -> np.ndarray:
        return np.array([text.count(ch) for ch in self._ALPHABET], dtype=np.int16)

    def best(self, query: str, max_edit: int = 2):
        """(distance, canonical name) of the geocode winner, or None."""
        bound = np.abs(self.hist - self._hist(query)).sum(axis=1)
        near = np.flatnonzero((bound <= 2 * max_edit) & (np.abs(self.lengths - len(query)) <= max_edit))
        hits = [(levenshtein(query, self.keys[i]), self.owner[i]) for i in near]
        hits = [h for h in hits if h[0] <= max_edit]
        return min(hits) if hits else None


def _mutate(rng: np.random.Generator, text: str, ops) -> str:
    """Apply edit ops (0 delete, 1 insert, 2 substitute) at random letters."""
    chars = list(text)
    for op in ops:
        letters = [i for i, ch in enumerate(chars) if ch != " "]
        pos = letters[rng.integers(len(letters))]
        letter = "abcdefghijklmnopqrstuvwxyz"[rng.integers(26)]
        if op == 0:
            del chars[pos]
        elif op == 1:
            chars.insert(pos, letter)
        else:
            chars[pos] = letter
    return "".join(chars)


QUERY_LENGTHS = (8, 13, 20)


def make_queries(seed: int, block: int, entries, index: NameIndex, n_each: int, rnd: int = 0):
    """Fuzzy queries as (query, expected canonical name or None, kind).

    Kinds interleave: a hit at edit distance 1, a hit at edit distance 2
    and a miss (no name within distance 2). A hit is kept only when its
    source entry wins at exactly that distance under geocode's rule
    (minimum distance, then the smaller canonical name). A full scan costs
    in proportion to the query's length, so each round of three kinds uses
    one length from ``QUERY_LENGTHS``: a hit's source name is picked so
    that the query has exactly that length after its edits, and every block
    has the same cost mix. Each round ``rnd`` draws new queries of the same
    kinds and lengths.
    """
    rng = rng_for(seed, 3, block, rnd)
    queries = []
    for i in range(3 * n_each):
        kind, length = ("d1", "d2", "miss")[i % 3], QUERY_LENGTHS[(i // 3) % len(QUERY_LENGTHS)]
        while True:
            if kind == "miss":
                query, target = _place_name(rng, 1 + length // 10).lower(), None
                if len(query) == length and index.best(query) is None:
                    break
                continue
            ops = [int(rng.integers(3)) for _ in range(1 if kind == "d1" else 2)]
            sources = np.flatnonzero(index.lengths == length + ops.count(0) - ops.count(1))
            key = sources[rng.integers(len(sources))]
            query, target = _mutate(rng, index.keys[key], ops), index.owner[key]
            if index.best(query) == (len(ops), target):
                break
        queries.append((query, target, kind))
    return queries


# Quantify: a five-component truth whose growth accepts several rounds, and a
# unimodal truth whose first growth round is rejected. Orientations stay off
# the 0/360 seam, which the mixture treats as a plain line.
FIVE_LOBES = (
    (0.2, (1.5, 60.0), (0.09, 64.0)),
    (0.2, (4.0, 150.0), (0.25, 100.0)),
    (0.2, (7.0, 240.0), (0.36, 81.0)),
    (0.2, (10.0, 120.0), (0.49, 100.0)),
    (0.2, (13.0, 300.0), (0.64, 121.0)),
)
UNIMODAL = ((1.0, (5.0, 200.0), (1.0, 400.0)),)
HELDOUT_POINTS = 500
# Held-out log-likelihood is reported against the uniform density on
# [0, 40] km x [0, 360) degrees, so it is positive for any useful fit.
LOG_UNIFORM_AREA = float(np.log(40.0 * 360.0))


def lobes_of(model) -> tuple:
    """(weight, mean, covariance) rows of a geotri GmmModel."""
    return tuple((c.weight, tuple(c.mean), c.covariance) for c in model.components)


def sample_lobes(lobes, n: int, rng: np.random.Generator) -> np.ndarray:
    weights = np.array([w for w, _, _ in lobes])
    picks = rng.choice(len(lobes), size=n, p=weights / weights.sum())
    out = np.empty((n, 2))
    for k, (_, mean, cov) in enumerate(lobes):
        cov = np.diag(cov) if np.ndim(cov) == 1 else np.asarray(cov, dtype=float)
        rows = picks == k
        out[rows] = np.asarray(mean) + rng.standard_normal((int(rows.sum()), 2)) @ np.linalg.cholesky(cov).T
    return out


def mixture_logpdf(weights, means, covs, x: np.ndarray) -> np.ndarray:
    """Reference log density of a bivariate mixture, independent of geotri."""
    terms = []
    for w, mean, cov in zip(weights, means, covs):
        diff = x - mean
        inv = np.linalg.inv(cov)
        maha = np.einsum("ni,ij,nj->n", diff, inv, diff)
        terms.append(np.log(w) - np.log(2 * np.pi) - 0.5 * np.log(np.linalg.det(cov)) - 0.5 * maha)
    stacked = np.stack(terms)
    peak = stacked.max(axis=0)
    return peak + np.log(np.exp(stacked - peak).sum(axis=0))


def fit_block(seed: int, block: int, truths: dict, rnd: int = 0):
    """One block of fits: every city label at n=200 and twice at n=2000,
    the unimodal truth at n=500 and the five-lobe truth three times at
    n=1000.

    By cost the block is 5 cheap fits, 8 mid-size fits and 3 long growth
    runs, so the median fit time falls inside the n=2000 fits and the 90th
    percentile inside the five-lobe fits, not on a gap between groups. An
    n=2000 fit's time varies by about a quarter with its data, so the
    median needs many of them.
    Yields (label, data, heldout, fit seed) per fit; ``truths`` maps label
    to lobes.
    """
    rng = rng_for(seed, 4, block, rnd)
    plan = [(label, 200) for label in sorted(truths) if label not in ("five lobes", "unimodal")]
    plan += [(label, 2000) for label, _ in plan] * 2
    plan += [("unimodal", 500)] + [("five lobes", 1000)] * 3
    fits = []
    for label, n in plan:
        data = sample_lobes(truths[label], n, rng)
        heldout = sample_lobes(truths[label], HELDOUT_POINTS, rng)
        fits.append((label, data, heldout, int(rng.integers(2**31))))
    return fits


# Localize.
def shifted_bbox(rng: np.random.Generator, bbox) -> tuple[float, float, float, float]:
    dlat, dlon = (float(v) for v in rng.uniform(-0.5, 0.5, 2))
    return (round(bbox[0] + dlat, 6), round(bbox[1] + dlon, 6), round(bbox[2] + dlat, 6), round(bbox[3] + dlon, 6))


def _spread(low: int, high: int, count: int) -> list[int]:
    """``count`` evenly spaced integers from low to high."""
    return [low + round((high - low) * i / (count - 1)) for i in range(count)]


def request_block(seed: int, block: int, bbox, count: int = 10, rnd: int = 0):
    """Interleaved one-shot requests: ``count`` predict and ``count`` fuse.

    Every block has the same request sizes, evenly spaced and shuffled, so
    latency percentiles do not move with the seed. Predict: grid dim 15..30,
    a shifted bbox and one point in it. Fuse: grid dim 15..60 paired at
    random with 40..200 observations, fractions 0.25, 0.5 and 1.0 in turn,
    product and sum fusion alternating. The block fixes the sizes; each
    round ``rnd`` draws new bboxes, points and scenarios for them.
    """
    rng = rng_for(seed, 5, block)
    predict_dims = [int(v) for v in rng.permutation(_spread(15, 30, count))]
    fuse_dims = [int(v) for v in rng.permutation(_spread(15, 60, count))]
    fuse_obs = [int(v) for v in rng.permutation(_spread(40, 200, count))]
    fraction_offset = int(rng.integers(3))
    rng = rng_for(seed, 5, block, rnd)
    requests = []
    for i in range(count):
        box = shifted_bbox(rng, bbox)
        point = (float(rng.uniform(box[0], box[2])), float(rng.uniform(box[1], box[3])))
        requests.append(("predict", {"bbox": box, "dim": predict_dims[i], "point": point}))
        requests.append(("fuse", {
            "bbox": shifted_bbox(rng, bbox),
            "dim": fuse_dims[i],
            "observations": fuse_obs[i],
            "unknown_at": (float(rng.uniform(0.2, 0.8)), float(rng.uniform(0.2, 0.8))),
            "scenario_seed": int(rng.integers(2**31)),
            "fraction": (0.25, 0.5, 1.0)[(i + fraction_offset) % 3],
            "fusion": ("product", "sum")[i % 2],
            "subsample_seed": int(rng.integers(2**31)),
        }))
    return requests


def trial_seeds(seed: int, block: int, rnd: int = 0) -> tuple[int, int]:
    rng = rng_for(seed, 6, block, rnd)
    return int(rng.integers(2**31)), int(rng.integers(2**31))
