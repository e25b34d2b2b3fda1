"""Spatial feature vectors: distance and orientation between two places.

Coordinates are projected to a local plane with an equirectangular
projection centered on a per-dataset origin (x east, y north, kilometres).
A relation instance (P_u, r, P_v) is summarized by the 2-vector

    (distance, orientation) = (|P_u - P_v|, atan2(dy, dx) in degrees)

measured at the reference place P_v toward the subject P_u, with east at 0
degrees and north at 90. Coincident points take orientation 0 by convention.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .atomic import read_tsv, write_tsv
from .gazetteer import Poi, _check_coords

__all__ = [
    "EARTH_RADIUS_KM",
    "ProjectionOrigin",
    "TrainingSet",
    "build_training_sets",
    "feature_components",
    "feature_vector",
    "label_filenames",
    "load_feature_array",
    "origin_for_points",
    "project",
    "write_training_set",
]

EARTH_RADIUS_KM = 6371.0
# The largest distance ``feature_components`` returns for WGS84 endpoints: a
# longitude gap of at most 360 degrees spans at most 2 pi R east-west (the
# cos(lat0) factor is at most 1) and a latitude gap of at most 180 spans pi R.
_MAX_DISTANCE_KM = math.hypot(2.0 * math.pi * EARTH_RADIUS_KM, math.pi * EARTH_RADIUS_KM)


@dataclass(frozen=True)
class ProjectionOrigin:
    """Latitude/longitude the local plane is centered on."""

    lat0: float
    lon0: float

    def __post_init__(self) -> None:
        _check_coords(self.lat0, self.lon0, "origin")


@dataclass
class TrainingSet:
    """All feature vectors observed for one relation label.

    ``vectors`` is a record array with the float fields ``distance`` (km)
    and ``orientation`` (degrees in [0, 360), 0 at zero distance), one row
    per triplet in triplet order. ``build_training_sets`` keys each set by its label.
    """

    vectors: np.recarray

    def __len__(self) -> int:
        return len(self.vectors)


def project(lat, lon, origin: ProjectionOrigin):
    """Equirectangular projection to (x, y) kilometres relative to origin.

    Accepts scalars or numpy arrays; x grows eastward, y northward.
    """
    lat = np.asarray(lat, dtype=float)
    lon = np.asarray(lon, dtype=float)
    x = EARTH_RADIUS_KM * np.cos(np.radians(origin.lat0)) * np.radians(lon - origin.lon0)
    y = EARTH_RADIUS_KM * np.radians(lat - origin.lat0)
    return x, y


def feature_components(lat_u, lon_u, lat_v, lon_v, origin: ProjectionOrigin):
    """Distance and orientation of subject (u) relative to reference (v).

    Vectorized over numpy array inputs. An atan2 angle <= 0 (-0.0 included)
    gains 360; orientation is 0 wherever the projected points coincide or
    that addition rounds an angle a hair below 0 up to 360.
    """
    xu, yu = project(lat_u, lon_u, origin)
    xv, yv = project(lat_v, lon_v, origin)
    dx = xu - xv
    dy = yu - yv
    distance = np.hypot(dx, dy)
    orientation = np.degrees(np.arctan2(dy, dx))
    orientation = orientation + 360.0 * (orientation <= 0.0)  # adds +0.0 elsewhere: 4x faster than np.where
    orientation = np.where((distance == 0.0) | (orientation == 360.0), 0.0, orientation)
    return distance, orientation


def feature_vector(p_u: Poi, p_v: Poi, origin: ProjectionOrigin) -> tuple[float, float]:
    """(distance, orientation) of subject ``p_u`` measured at reference ``p_v``."""
    distance, orientation = feature_components(p_u.lat, p_u.lon, p_v.lat, p_v.lon, origin)
    return float(distance), float(orientation)


def origin_for_points(points) -> ProjectionOrigin:
    """Bounding-box centroid of an iterable of (lat, lon) pairs."""
    pts = list(points)
    if not pts:
        raise ValueError("cannot derive an origin from zero points")
    lats = [p[0] for p in pts]
    lons = [p[1] for p in pts]
    return ProjectionOrigin((min(lats) + max(lats)) / 2.0, (min(lons) + max(lons)) / 2.0)


def build_training_sets(triplets, origin: ProjectionOrigin) -> dict[str, TrainingSet]:
    """Group triplets by relation label, preserving first-seen label order.

    Every triplet contributes exactly one feature vector to the set of its
    label; the total size across sets equals the number of triplets.
    """
    triplets = list(triplets)
    coords = [(t.subject.lat, t.subject.lon, t.object.lat, t.object.lon) for t in triplets]
    distance, orientation = feature_components(*np.array(coords, dtype=float).reshape(-1, 4).T, origin)
    labels = np.array([t.relation for t in triplets], dtype=object)
    sets: dict[str, TrainingSet] = {}
    for label in dict.fromkeys(labels.tolist()):
        mask = labels == label
        vectors = np.rec.fromarrays([distance[mask], orientation[mask]], names="distance,orientation")
        sets[label] = TrainingSet(vectors)
    return sets


def label_filenames(labels) -> dict[str, str]:
    """Training-set file name per label: spaces become underscores, plus ``.tsv``.

    Raises ValueError for an empty label or a name with a directory part,
    and when two labels map to one name (``north of``, ``north_of``).
    """
    names = {label: label.replace(" ", "_") + ".tsv" for label in labels}
    owners: dict[str, str] = {}
    for label, name in names.items():
        if not label or os.path.basename(name) != name:
            raise ValueError(f"label {label!r} does not name a file inside the output directory")
        if owners.setdefault(name, label) != label:
            raise ValueError(f"labels {owners[name]!r} and {label!r} both map to {name}")
    return names


def write_training_set(training_set: TrainingSet, path) -> None:
    """Write one feature vector per line as ``distance<TAB>orientation``."""
    vectors = training_set.vectors
    write_tsv(path, zip(vectors.distance.tolist(), vectors.orientation.tolist()))


def _feature_row(fields: list[str]) -> tuple[float, float]:
    if len(fields) != 2:
        raise ValueError(f"expected 2 columns, got {len(fields)}")
    distance, orientation = float(fields[0]), float(fields[1])
    if not (math.isfinite(distance) and math.isfinite(orientation)):
        raise ValueError(f"non-finite feature value: {fields[0]}\t{fields[1]}")
    if not 0.0 <= distance <= _MAX_DISTANCE_KM:
        raise ValueError(f"distance {fields[0]} km outside [0, {_MAX_DISTANCE_KM:.0f}]")
    if not 0.0 <= orientation < 360.0:
        raise ValueError(f"orientation {fields[1]} degrees outside [0, 360)")
    return distance, orientation


def load_feature_array(path: str) -> np.ndarray:
    """Read a training-set TSV back into an (n, 2) array of in-range (distance, orientation) rows."""
    rows = read_tsv(path, _feature_row)
    return np.array(rows, dtype=float) if rows else np.empty((0, 2), dtype=float)
