"""Qualitative spatial relations: extraction, mixture models, and fusion.

The pipeline turns geospatial narratives into (subject, relation, object)
triplets, converts each triplet into a (distance, orientation) feature
vector, fits a Gaussian mixture per relation with a greedy component-adding
trainer, and fuses relation densities over a grid to locate unknown places.
"""

from .extract import PatternSet, Triplet, extract_triplets, load_patterns
from .features import (
    ProjectionOrigin,
    build_training_sets,
    feature_vector,
)
from .fuse import Estimate, Scenario, fuse
from .gazetteer import Gazetteer, Poi, geocode, load_gazetteer
from .mixture import (
    GaussianComponent,
    GmmModel,
    TrainingConfig,
    em_fit,
    gmm_log_likelihood,
    greedy_train,
)
from .predict import Grid, make_grid, prediction_accuracy, relation_holds, score_point

__version__ = "0.1.0"

__all__ = [
    "Estimate",
    "Gazetteer",
    "GaussianComponent",
    "GmmModel",
    "Grid",
    "PatternSet",
    "Poi",
    "ProjectionOrigin",
    "Scenario",
    "TrainingConfig",
    "Triplet",
    "build_training_sets",
    "em_fit",
    "extract_triplets",
    "feature_vector",
    "fuse",
    "geocode",
    "gmm_log_likelihood",
    "greedy_train",
    "load_gazetteer",
    "load_patterns",
    "make_grid",
    "prediction_accuracy",
    "relation_holds",
    "score_point",
]
