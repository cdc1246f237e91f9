"""Station graph construction and wind-driven edge attributes.

A monitoring network is a directed graph over stations: every ordered pair of
distinct stations closer than a distance threshold gets an edge in each
direction.  Static geometry (great-circle distance, initial bearing) is fixed
at build time; dynamic attributes (source wind speed/direction and the
advection coefficient, i.e. the along-edge wind component) are recomputed per
timestep from the wind field.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DataError

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

    def station_ids(self) -> list[str]:
        return [s.id for s in self.stations]

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


def haversine_km(a: Station, b: Station) -> float:
    """Great-circle distance between two stations (mean Earth radius 6371 km)."""
    return float(_haversine_km(a.latitude, a.longitude, b.latitude, b.longitude))


def initial_bearing_deg(a: Station, b: Station) -> float:
    """Initial bearing from ``a`` to ``b``, degrees clockwise from north.

    Undefined configurations (coincident points, either endpoint at a pole,
    antipodal points) are rejected rather than given an arbitrary value.
    """
    if a.latitude == b.latitude and a.longitude == b.longitude:
        raise ValueError(f"undefined bearing: stations {a.id!r} and {b.id!r} are coincident")
    if abs(a.latitude) >= 90.0 or abs(b.latitude) >= 90.0:
        raise ValueError("undefined bearing: endpoint at a pole")
    if abs(a.latitude + b.latitude) < 1e-9 and abs(abs(a.longitude - b.longitude) - 180.0) < 1e-9:
        raise ValueError(f"undefined bearing: stations {a.id!r} and {b.id!r} are antipodal")
    return float(_initial_bearing_deg(a.latitude, a.longitude, b.latitude, b.longitude))


def build_network(stations: list[Station], threshold_km: float) -> StationNetwork:
    """Connect every ordered pair of distinct stations within ``threshold_km``.

    Edge order is lexicographic by (source, sink) so downstream computations
    are independent of evaluation order.
    """
    if not stations:
        raise DataError("cannot build a network from an empty station list")
    if len(stations) < 2:
        raise DataError("need at least 2 stations to build a network")
    if threshold_km <= 0:
        raise ValueError(f"distance threshold must be positive, got {threshold_km}")
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
    co_located = (lat[src] == lat[dst]) & (lon[src] == lon[dst])
    if co_located.any():
        i, j = edges[np.argmax(co_located)]
        raise DataError(f"stations {ids[i]!r} and {ids[j]!r} are co-located; "
                        "bearing is undefined for zero-distance edges")
    bearing = _initial_bearing_deg(lat[src], lon[src], lat[dst], lon[dst]) if len(edges) else np.zeros(0)
    return StationNetwork(
        stations=list(stations),
        edges=edges,
        distance_km=dist[src, dst] if len(edges) else np.zeros(0),
        bearing_deg=np.asarray(bearing, dtype=float),
    )


def advection_coefficient(wind_speed, wind_direction_deg, edge_bearing_deg):
    """Along-edge wind component, clipped at zero.

    ``max(0, speed * cos(direction - bearing))`` with the wind direction in
    toward-convention, so a wind blowing exactly along the edge contributes
    its full speed and an opposing or perpendicular wind contributes nothing.
    Accepts scalars or arrays.
    """
    speed = np.asarray(wind_speed, dtype=float)
    if np.any(speed < 0):
        raise ValueError("wind speed must be non-negative")
    delta = np.radians(np.asarray(wind_direction_deg, dtype=float) - np.asarray(edge_bearing_deg, dtype=float))
    out = np.maximum(0.0, speed * np.cos(delta))
    return float(out) if out.ndim == 0 else out


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


def edge_attributes_at(network: StationNetwork, wind: np.ndarray) -> np.ndarray:
    """Edge attributes from per-station wind fields, as (..., E, 5).

    ``wind`` is an (..., L, 2) array of (u10, v10) in m/s: one (L, 2) field
    for one timestep, or a (T, L, 2) panel for T of them.  The columns follow
    :data:`EDGE_FEATURES`: distance (km), bearing (deg), source wind speed
    (m/s), source wind direction (deg, toward-convention) and the advection
    coefficient (m/s, never negative).  Distance and bearing are static and
    repeat at every timestep; speed and direction are computed once per
    station and taken at the source station of each edge.
    """
    wind = np.asarray(wind, dtype=float)
    if wind.shape[-2:] != (network.n_stations, 2):
        raise ValueError(f"wind field must have shape (..., {network.n_stations}, 2), got {wind.shape}")
    speed, direction = wind_speed_direction(wind[..., 0], wind[..., 1])
    src = network.edges[:, 0]
    speed, direction = speed[..., src], direction[..., src]
    adv = advection_coefficient(speed, direction, network.bearing_deg)
    return np.stack([np.broadcast_to(network.distance_km, speed.shape),
                     np.broadcast_to(network.bearing_deg, speed.shape),
                     speed, direction, adv], axis=-1)


def inverse_distance_weights(network: StationNetwork) -> np.ndarray:
    """Per-edge weights d_min / d_ij, d_min being the smallest edge distance."""
    if network.n_edges == 0:
        raise ValueError("inverse-distance weights need at least one edge")
    if np.any(network.distance_km <= 0):
        raise ValueError("zero-distance edge: co-located stations make inverse-distance weights degenerate")
    return float(network.distance_km.min()) / network.distance_km


def read_stations_csv(path) -> list[Station]:
    """Read a station list from a CSV file with header ``id,latitude,longitude``."""
    stations = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty station file") from None
        if [h.strip() for h in header] != ["id", "latitude", "longitude"]:
            raise DataError(f"{path}:1: expected header 'id,latitude,longitude', got {','.join(header)!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3:
                raise DataError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
            try:
                stations.append(Station(row[0].strip(), float(row[1]), float(row[2])))
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
    if not stations:
        raise DataError(f"{path}: no stations found")
    return stations


def write_edge_list(network: StationNetwork, path) -> None:
    """Export edges as ``src,dst,distance_km,bearing_deg`` for inspection."""
    ids = network.station_ids()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["src", "dst", "distance_km", "bearing_deg"])
        for k in range(network.n_edges):
            i, j = network.edges[k]
            writer.writerow([ids[i], ids[j], f"{network.distance_km[k]:.6f}", f"{network.bearing_deg[k]:.6f}"])
