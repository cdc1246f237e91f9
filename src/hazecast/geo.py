"""Station graph construction and wind-driven edge attributes.

A monitoring network is a directed graph over stations: every ordered pair of
distinct stations closer than a distance threshold gets an edge in each
direction.  Static geometry (great-circle distance, initial bearing) is fixed
at build time; dynamic attributes (source wind speed/direction and the
advection coefficient, i.e. the along-edge wind component) are recomputed per
timestep from the wind field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, UsageError
from .kvfile import csv_rows, read_text

EARTH_RADIUS_KM = 6371.0

#: Column order of the dynamic per-edge attribute vector.
EDGE_FEATURES = ("distance_km", "bearing_deg", "wind_speed", "wind_direction_deg", "advection")


@dataclass(frozen=True)
class Station:
    """A monitoring location identified by id and WGS84 coordinates."""

    id: str
    latitude: float
    longitude: float

    def __post_init__(self):
        if not -90.0 <= self.latitude <= 90.0:
            raise DataError(f"station {self.id!r}: latitude {self.latitude} outside [-90, 90]")
        if not -180.0 <= self.longitude <= 180.0:
            raise DataError(f"station {self.id!r}: longitude {self.longitude} outside [-180, 180]")


@dataclass
class StationNetwork:
    """Directed station graph with static per-edge geometry.

    Edges are stored as an ``(E, 2)`` integer array of (source, sink) node
    indices in lexicographic order.  Pairwise distance is symmetric, so the
    threshold admits both directions of every retained pair; only the dynamic
    attributes differ between an edge and its reverse.
    """

    stations: list[Station]
    edges: np.ndarray            # (E, 2) int64, lexicographic (src, dst)
    distance_km: np.ndarray      # (E,)
    bearing_deg: np.ndarray      # (E,) initial bearing src -> dst, [0, 360)

    @property
    def n_stations(self) -> int:
        return len(self.stations)

    @property
    def n_edges(self) -> int:
        return int(self.edges.shape[0])

    def coordinates(self) -> np.ndarray:
        """(L, 2) array of (latitude, longitude)."""
        return np.array([[s.latitude, s.longitude] for s in self.stations], dtype=float)


def _haversine_km(lat1, lon1, lat2, lon2):
    """Great-circle distance; accepts scalars or broadcastable arrays."""
    p1, l1, p2, l2 = (np.radians(np.asarray(x, dtype=float)) for x in (lat1, lon1, lat2, lon2))
    a = np.sin((p2 - p1) / 2.0) ** 2 + np.cos(p1) * np.cos(p2) * np.sin((l2 - l1) / 2.0) ** 2
    return EARTH_RADIUS_KM * 2.0 * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


def _wrap_deg(angle_deg):
    """Reduce angles in degrees to [0, 360); scalars stay scalars.

    ``x % 360.0`` rounds a tiny negative ``x`` up to exactly 360.0.  That value
    becomes 0.0, the nearer representable angle on the circle; every other
    result of the modulo is returned unchanged.
    """
    wrapped = np.asarray(angle_deg, dtype=float) % 360.0
    return np.where(wrapped == 360.0, 0.0, wrapped)[()]


def _initial_bearing_deg(lat1, lon1, lat2, lon2):
    """Initial great-circle bearing, degrees clockwise from north in [0, 360)."""
    p1, l1, p2, l2 = (np.radians(np.asarray(x, dtype=float)) for x in (lat1, lon1, lat2, lon2))
    dl = l2 - l1
    y = np.sin(dl) * np.cos(p2)
    x = np.cos(p1) * np.sin(p2) - np.sin(p1) * np.cos(p2) * np.cos(dl)
    return _wrap_deg(np.degrees(np.arctan2(y, x)))


def _undefined_bearings(lat1, lon1, lat2, lon2):
    """(mask, reason) for each way an initial bearing is undefined; takes scalars or arrays."""
    return (((lat1 == lat2) & (lon1 == lon2), "are co-located"),
            ((np.abs(lat1) >= 90.0) | (np.abs(lat2) >= 90.0), "include a pole"),
            ((np.abs(lat1 + lat2) < 1e-9) & (np.abs(np.abs(lon1 - lon2) - 180.0) < 1e-9), "are antipodal"))


def build_network(stations: list[Station], threshold_km: float) -> StationNetwork:
    """Connect every ordered pair of distinct stations within ``threshold_km``.

    Edge order is lexicographic by (source, sink) so downstream computations
    are independent of evaluation order.  An edge whose bearing is undefined
    (co-located, polar or antipodal endpoints) raises ``DataError``.
    """
    if len(stations) < 2:
        raise DataError("need at least 2 stations to build a network")
    if not 0.0 < threshold_km < np.inf:   # refuses NaN too
        raise UsageError(f"distance threshold must be positive and finite, got {threshold_km}")
    ids = [s.id for s in stations]
    if len(set(ids)) != len(ids):
        dup = sorted({i for i in ids if ids.count(i) > 1})
        raise DataError(f"duplicate station ids: {dup}")

    lat = np.array([s.latitude for s in stations])
    lon = np.array([s.longitude for s in stations])
    dist = _haversine_km(lat[:, None], lon[:, None], lat[None, :], lon[None, :])
    keep = dist <= threshold_km
    np.fill_diagonal(keep, False)
    edges = np.argwhere(keep).astype(np.int64)  # row-major == lexicographic

    src, dst = edges[:, 0], edges[:, 1]
    for undefined, why in _undefined_bearings(lat[src], lon[src], lat[dst], lon[dst]):
        if undefined.any():
            i, j = edges[np.argmax(undefined)]
            raise DataError(f"stations {ids[i]!r} and {ids[j]!r} {why}; the bearing of their edge is undefined")
    return StationNetwork(
        stations=list(stations),
        edges=edges,
        distance_km=dist[src, dst],
        bearing_deg=_initial_bearing_deg(lat[src], lon[src], lat[dst], lon[dst]),
    )


def _advection_into(out, speed, direction, bearing_deg) -> np.ndarray:
    """``max(0, speed * cos(direction - bearing))`` written into ``out``; returns ``out``."""
    np.subtract(direction, bearing_deg, out=out)
    np.radians(out, out=out)
    np.cos(out, out=out)
    out *= speed
    return np.maximum(0.0, out, out=out)


def wind_speed_direction(u10, v10):
    """Convert (u, v) wind components to (speed, toward-bearing in degrees).

    u is the eastward and v the northward component, so the bearing of the
    vector (the direction the wind blows toward) is atan2(u, v) from north,
    returned in [0, 360).  A calm wind (speed 0) has no meaningful direction:
    the value follows the signs of the zeros, 0.0 for (0.0, 0.0) and 180.0 for
    (-0.0, -0.0); its advection coefficient is 0 either way.
    """
    u = np.asarray(u10, dtype=float)
    v = np.asarray(v10, dtype=float)
    speed = np.hypot(u, v)
    direction = _wrap_deg(np.degrees(np.arctan2(u, v)))
    return speed, direction


def _station_wind(network: StationNetwork, wind) -> tuple[np.ndarray, np.ndarray]:
    """(speed, direction) of an (..., L, 2) wind field, each (..., L)."""
    wind = np.asarray(wind, dtype=float)
    if wind.shape[-2:] != (network.n_stations, 2):
        raise ValueError(f"wind field must have shape (..., {network.n_stations}, 2), got {wind.shape}")
    return wind_speed_direction(wind[..., 0], wind[..., 1])


def edge_attributes_at(network: StationNetwork, wind: np.ndarray) -> np.ndarray:
    """Edge attributes from per-station wind fields, as (..., E, 5).

    ``wind`` is an (..., L, 2) array of (u10, v10) in m/s: one (L, 2) field
    for one timestep, or a (T, L, 2) panel for T of them.  The columns follow
    :data:`EDGE_FEATURES`: distance (km), bearing (deg), source wind speed
    (m/s), source wind direction (deg, toward-convention) and the advection
    coefficient (m/s, never negative).  Distance and bearing are static and
    repeat at every timestep; speed and direction are computed once per
    station and taken at the source station of each edge.  The wind columns
    are computed on contiguous (..., E) arrays, then copied into the output.
    """
    speed, direction = _station_wind(network, wind)
    src = network.edges[:, 0]
    src_speed, src_dir = np.take(speed, src, axis=-1), np.take(direction, src, axis=-1)
    out = np.empty(speed.shape[:-1] + (network.n_edges, len(EDGE_FEATURES)))
    out[..., 0] = network.distance_km
    out[..., 1] = network.bearing_deg
    out[..., 2] = src_speed
    out[..., 3] = src_dir
    out[..., 4] = _advection_into(src_dir, src_speed, src_dir, network.bearing_deg)
    return out


def edge_attribute_stats(network: StationNetwork, wind: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean and population std of ``edge_attributes_at(network, wind)``'s rows.

    Each column's statistics come from its factors, not from the (..., E, 5)
    array: distance and bearing from the E edges, as they repeat at every
    step; source wind speed and direction from the (..., L) station values,
    each station weighted by its out-degree; only the advection coefficient
    needs one (..., E) array.  A zero std (a constant column, or no rows at
    all, whose mean reads 0) is returned as 1, so that standardizing passes
    such a column through centred.
    """
    speed, direction = _station_wind(network, wind)
    src = network.edges[:, 0]
    mean, var = np.zeros(len(EDGE_FEATURES)), np.zeros(len(EDGE_FEATURES))
    n_rows = speed.size // network.n_stations * network.n_edges
    if n_rows:
        static = np.stack([network.distance_km, network.bearing_deg])
        mean[:2], var[:2] = static.mean(axis=1), static.var(axis=1)
        weight = np.bincount(src, minlength=network.n_stations) / n_rows
        for k, station in ((2, speed), (3, direction)):
            station = station.reshape(-1, network.n_stations)
            mean[k] = station.sum(axis=0) @ weight
            var[k] = np.square(station - mean[k]).sum(axis=0) @ weight
        adv = np.take(direction, src, axis=-1)
        _advection_into(adv, np.take(speed, src, axis=-1), adv, network.bearing_deg)
        mean[4], var[4] = adv.mean(), adv.var()
    std = np.sqrt(var)
    return mean, np.where(std > 0, std, 1.0)


def inverse_distance_weights(network: StationNetwork) -> np.ndarray:
    """Per-edge weights d_min / d_ij, d_min being the smallest edge distance.

    A network without edges gets an empty array.
    """
    if np.any(network.distance_km <= 0):
        raise ValueError("zero-distance edge: co-located stations make inverse-distance weights degenerate")
    return float(network.distance_km.min(initial=np.inf)) / network.distance_km


def read_stations_csv(path) -> list[Station]:
    """Read a station list from a CSV file with header ``id,latitude,longitude``."""
    stations = []
    for lineno, (sid, lat, lon) in csv_rows(path, read_text(path), ("id", "latitude", "longitude")):
        try:
            stations.append(Station(sid, float(lat), float(lon)))
        except (ValueError, DataError) as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
    if not stations:
        raise DataError(f"{path}: no stations found")
    return stations
