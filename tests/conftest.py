import pathlib
from unittest import mock

import numpy as np
import pytest

from geotri import load_gazetteer, load_patterns, mixture
from geotri.gazetteer import GazetteerEntry

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> pathlib.Path:
    return FIXTURES


@pytest.fixture(scope="session")
def gazetteer():
    return load_gazetteer(str(FIXTURES / "gazetteer.tsv"))


@pytest.fixture(scope="session")
def gazetteer_entries() -> list[GazetteerEntry]:
    # The fixture gazetteer's rows, parsed without the loader.
    entries = []
    for line in (FIXTURES / "gazetteer.tsv").read_text(encoding="utf-8").splitlines():
        name, alts, lat, lon = line.split("\t")
        entries.append(GazetteerEntry(name, tuple(alt for alt in alts.split(",") if alt), float(lat), float(lon)))
    return entries


@pytest.fixture(scope="session")
def patterns():
    return load_patterns(str(FIXTURES / "patterns.tsv"))


@pytest.fixture(scope="session")
def corpus() -> list[str]:
    with open(FIXTURES / "corpus.txt", encoding="utf-8") as handle:
        return [line.strip() for line in handle if line.strip()]


@pytest.fixture(scope="session")
def gold_triplets() -> set[tuple[str, str, str]]:
    gold = set()
    with open(FIXTURES / "corpus_gold.tsv", encoding="utf-8") as handle:
        for line in handle:
            subject, label, obj = line.rstrip("\n").split("\t")
            gold.add((subject, label, obj))
    return gold


class UniformDensityModel:
    """Stub model with the same density everywhere (log density 0)."""

    def __init__(self, relation: str = "anywhere"):
        self.relation = relation

    def logpdf(self, distance, orientation) -> np.ndarray:
        return np.zeros(np.shape(distance))


def em_steps(data, model) -> list[float]:
    """Log-likelihoods of a chain of one-iteration ``em_fit`` calls from ``model``, first one included.

    The chain stops as ``em_fit`` itself does: when a step gains at most
    ``EM_TOL`` relative, or after ``EM_MAX_ITER`` steps.
    """
    steps = [mixture.gmm_log_likelihood(data, model)]
    for _ in range(mixture.EM_MAX_ITER):
        with mock.patch.object(mixture, "EM_MAX_ITER", 1):
            model = mixture.em_fit(data, model)
        steps.append(mixture.gmm_log_likelihood(data, model))
        if steps[-1] - steps[-2] <= mixture.EM_TOL * max(1.0, abs(steps[-1])):
            break
    return steps
