import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hazecast.errors import DataError, UsageError
from hazecast.geo import (
    EDGE_FEATURES,
    Station,
    _advection_into,
    _haversine_km,
    _initial_bearing_deg,
    build_network,
    edge_attribute_stats,
    edge_attributes_at,
    inverse_distance_weights,
    read_stations_csv,
    wind_speed_direction,
)

# Frozen oracle values, computed with the spherical law of cosines and a
# longhand atan2 bearing evaluation (independent of the package formulas).
DIST_PATNA_GAYA_KM = 89.73692339405589
QUARTER_CIRCUMFERENCE_KM = 10007.543398010286
BEARING_PATNA_GAYA_DEG = 188.60456966552815
BEARING_RANDOM_PAIR_DEG = 72.73272741704162

# Pairs whose atan2 bearing is a tiny negative angle, which ``% 360.0`` rounds
# up to exactly 360.0; the wrapped bearing is 0.0.
NEAR_NORTH_PAIRS = [
    ((0.0, 1.1825917325921244e-98), (1.0, 0.0)),
    ((-1.0, 1.7e-134), (0.0, 0.0)),
]

coord = st.tuples(
    st.floats(min_value=-80, max_value=80),
    st.floats(min_value=-179, max_value=179),
)


def S(id_, lat, lon):
    return Station(id_, lat, lon)


def haversine(a, b):
    return float(_haversine_km(a.latitude, a.longitude, b.latitude, b.longitude))


def bearing(a, b):
    return float(_initial_bearing_deg(a.latitude, a.longitude, b.latitude, b.longitude))


def advection(speed, direction, edge_bearing):
    return float(_advection_into(np.empty(()), speed, direction, edge_bearing))


class TestHaversine:
    def test_identical_points_zero(self):
        a = S("a", 25.0, 85.0)
        assert haversine(a, S("b", 25.0, 85.0)) == 0.0

    def test_quarter_circumference(self):
        d = haversine(S("a", 0.0, 0.0), S("b", 0.0, 90.0))
        assert d == pytest.approx(QUARTER_CIRCUMFERENCE_KM, rel=1e-9)

    def test_against_independent_great_circle_oracle(self):
        d = haversine(S("a", 25.594, 85.137), S("b", 24.796, 85.004))
        assert d == pytest.approx(DIST_PATNA_GAYA_KM, rel=1e-9)

    @given(coord, coord)
    @settings(max_examples=200)
    def test_symmetry(self, p, q):
        a, b = S("a", *p), S("b", *q)
        dab, dba = haversine(a, b), haversine(b, a)
        assert dab >= 0.0
        assert dab == pytest.approx(dba, rel=1e-9, abs=1e-12)


class TestBearing:
    def test_due_north(self):
        assert bearing(S("a", 0, 0), S("b", 10, 0)) == pytest.approx(0.0, abs=1e-12)

    def test_due_east_along_equator(self):
        assert bearing(S("a", 0, 0), S("b", 0, 10)) == pytest.approx(90.0, abs=1e-12)

    def test_against_spherical_trig_oracle(self):
        b1 = bearing(S("a", 25.594, 85.137), S("b", 24.796, 85.004))
        b2 = bearing(S("a", 10.5, -3.25), S("b", 12.75, 4.5))
        assert b1 == pytest.approx(BEARING_PATNA_GAYA_DEG, abs=1e-9)
        assert b2 == pytest.approx(BEARING_RANDOM_PAIR_DEG, abs=1e-9)

    @given(coord, coord)
    @settings(max_examples=200)
    def test_range(self, p, q):
        # Also where the bearing is undefined (coincident or antipodal
        # points), which build_network rejects; see TestBuildNetwork.
        assert 0.0 <= bearing(S("a", *p), S("b", *q)) < 360.0

    @pytest.mark.parametrize("p,q", NEAR_NORTH_PAIRS)
    def test_tiny_negative_angle_wraps_to_zero(self, p, q):
        assert bearing(S("a", *p), S("b", *q)) == 0.0

    @pytest.mark.parametrize("p,q", NEAR_NORTH_PAIRS)
    def test_network_bearings_in_range(self, p, q):
        # ~111 km apart, so the threshold keeps both directions.
        net = build_network([S("a", *p), S("b", *q)], threshold_km=200.0)
        assert net.n_edges == 2
        assert np.all((net.bearing_deg >= 0.0) & (net.bearing_deg < 360.0))


def random_stations(n, rng, lat0=25.0, lon0=85.0, extent_deg=0.08):
    out = []
    for k in range(n):
        out.append(S(f"s{k:02d}",
                     lat0 + rng.uniform(-extent_deg, extent_deg),
                     lon0 + rng.uniform(-extent_deg, extent_deg)))
    return out


class TestBuildNetwork:
    def test_pair_below_threshold(self):
        # ~3 km apart along a meridian
        sts = [S("a", 0.0, 0.0), S("b", 0.027, 0.0)]
        assert haversine(*sts) < 5.0
        net = build_network(sts, threshold_km=5.0)
        assert sorted(map(tuple, net.edges.tolist())) == [(0, 1), (1, 0)]

    def test_pair_above_threshold(self):
        sts = [S("a", 0.0, 0.0), S("b", 0.063, 0.0)]
        assert haversine(*sts) > 5.0
        net = build_network(sts, threshold_km=5.0)
        assert net.n_edges == 0

    def test_matches_exhaustive_pairwise_oracle(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            sts = random_stations(10, rng)
            thr = rng.uniform(2.0, 12.0)
            net = build_network(sts, threshold_km=thr)
            expected = sorted(
                (i, j)
                for i in range(10)
                for j in range(10)
                if i != j and haversine(sts[i], sts[j]) <= thr
            )
            assert sorted(map(tuple, net.edges.tolist())) == expected
            # lexicographic edge order
            assert net.edges.tolist() == sorted(map(list, net.edges.tolist()))

    def test_reciprocity_and_threshold_monotonicity(self):
        rng = np.random.default_rng(11)
        sts = random_stations(12, rng)
        small = build_network(sts, threshold_km=4.0)
        large = build_network(sts, threshold_km=8.0)
        small_set = set(map(tuple, small.edges.tolist()))
        large_set = set(map(tuple, large.edges.tolist()))
        assert small_set <= large_set
        for i, j in small_set:
            assert (j, i) in small_set

    def test_static_geometry_populated(self):
        rng = np.random.default_rng(3)
        sts = random_stations(6, rng)
        net = build_network(sts, threshold_km=10.0)
        for k in range(net.n_edges):
            i, j = net.edges[k]
            assert net.distance_km[k] == pytest.approx(haversine(sts[i], sts[j]), rel=1e-12)
            assert net.bearing_deg[k] == pytest.approx(
                bearing(sts[i], sts[j]), abs=1e-12)

    def test_empty_station_list(self):
        with pytest.raises(DataError):
            build_network([], threshold_km=5.0)

    def test_single_station(self):
        with pytest.raises(DataError):
            build_network([S("a", 0, 0)], threshold_km=5.0)

    @pytest.mark.parametrize("threshold", [0.0, -5.0, math.nan, math.inf, np.float64("nan")])
    def test_non_positive_threshold_rejected(self, threshold):
        with pytest.raises(UsageError, match="distance threshold must be positive and finite"):
            build_network([S("a", 0, 0), S("b", 0.01, 0)], threshold_km=threshold)

    def test_duplicate_ids(self):
        with pytest.raises(DataError, match="duplicate"):
            build_network([S("a", 0, 0), S("a", 0.01, 0)], threshold_km=5.0)

    def test_co_located_stations_rejected(self):
        # Edges (0, 2) and (1, 3) join co-located pairs; the error names the first in edge order.
        sts = [S("a", 0.0, 0.0), S("b", 0.01, 0.0), S("c", 0.0, 0.0), S("d", 0.01, 0.0)]
        with pytest.raises(DataError, match="stations 'a' and 'c' are co-located"):
            build_network(sts, threshold_km=5.0)
        with pytest.raises(DataError, match="stations 'b' and 'd' are co-located"):
            build_network(sts[1:], threshold_km=5.0)

    @pytest.mark.parametrize("pole", [(90.0, 0.0), (90.0, 120.0), (-90.0, 0.0)])
    def test_edge_to_a_pole_rejected(self, pole):
        # Any longitude names the same pole point, so its edges have no defined bearing.
        near = (89.9, 10.0) if pole[0] > 0 else (-89.9, 10.0)
        with pytest.raises(DataError, match="stations 'n' and 'p' include a pole"):
            build_network([S("n", *near), S("p", *pole)], threshold_km=50.0)

    def test_antipodal_edge_rejected(self):
        sts = [S("a", 10.0, 20.0), S("b", -10.0, -160.0)]
        with pytest.raises(DataError, match="stations 'a' and 'b' are antipodal"):
            build_network(sts, threshold_km=20100.0)


class TestAdvection:
    def test_wind_aligned_with_edge(self):
        assert advection(5.0, 90.0, 90.0) == pytest.approx(5.0)

    def test_perpendicular_wind(self):
        assert advection(5.0, 0.0, 90.0) == pytest.approx(0.0, abs=1e-12)

    def test_opposing_wind_clipped(self):
        assert advection(5.0, 270.0, 90.0) == 0.0

    @given(st.floats(min_value=0, max_value=50),
           st.floats(min_value=0, max_value=360),
           st.floats(min_value=0, max_value=360))
    @settings(max_examples=300)
    def test_nonnegative_and_bounded(self, speed, direction, edge_bearing):
        a = advection(speed, direction, edge_bearing)
        assert 0.0 <= a <= speed + 1e-12

    def test_in_place_over_the_direction_array(self):
        # edge_attributes_at writes the coefficient over its direction array.
        rng = np.random.default_rng(4)
        speed, direction = rng.uniform(0, 10, size=(3, 7)), rng.uniform(0, 360, size=(3, 7))
        edge_bearing = rng.uniform(0, 360, size=7)
        expected = _advection_into(np.empty((3, 7)), speed, direction, edge_bearing)
        assert _advection_into(direction, speed, direction, edge_bearing) is direction
        assert direction.tobytes() == expected.tobytes()

    def test_maximum_at_alignment(self):
        speed = 7.3
        aligned = advection(speed, 123.4, 123.4)
        assert aligned == pytest.approx(speed, rel=1e-15)
        for direction in np.linspace(0, 359, 120):
            assert advection(speed, direction, 123.4) <= aligned + 1e-12


class TestEdgeAttributes:
    def test_zero_wind(self):
        rng = np.random.default_rng(5)
        net = build_network(random_stations(5, rng), threshold_km=10.0)
        frame = edge_attributes_at(net, np.zeros((5, 2)))
        assert np.all(frame[:, 2] == 0.0)  # speed
        assert np.all(frame[:, 4] == 0.0)  # advection

    def test_unit_eastward_wind(self):
        rng = np.random.default_rng(5)
        net = build_network(random_stations(5, rng), threshold_km=10.0)
        wind = np.tile([1.0, 0.0], (5, 1))
        frame = edge_attributes_at(net, wind)
        assert np.allclose(frame[:, 2], 1.0)
        assert np.allclose(frame[:, 3], 90.0)

    def test_matches_scalar_formula_oracle(self):
        rng = np.random.default_rng(17)
        sts = random_stations(5, rng)
        net = build_network(sts, threshold_km=10.0)
        wind = rng.normal(0, 4, size=(5, 2))
        frame = edge_attributes_at(net, wind)
        for k in range(net.n_edges):
            i = net.edges[k, 0]
            u, v = wind[i]
            speed = math.sqrt(u * u + v * v)
            direction = math.degrees(math.atan2(u, v)) % 360.0
            adv = max(0.0, speed * math.cos(math.radians(direction - net.bearing_deg[k])))
            assert frame[k, 0] == pytest.approx(net.distance_km[k])
            assert frame[k, 1] == pytest.approx(net.bearing_deg[k])
            assert frame[k, 2] == pytest.approx(speed, rel=1e-12)
            assert frame[k, 3] == pytest.approx(direction, rel=1e-12)
            assert frame[k, 4] == pytest.approx(adv, rel=1e-10, abs=1e-12)

    def test_length_mismatch(self):
        rng = np.random.default_rng(5)
        net = build_network(random_stations(5, rng), threshold_km=10.0)
        with pytest.raises(ValueError):
            edge_attributes_at(net, np.zeros((4, 2)))

    def test_panel_bitwise_equal_to_per_step_calls(self):
        rng = np.random.default_rng(8)
        net = build_network(random_stations(6, rng), threshold_km=10.0)
        wind = rng.normal(0, 4, size=(7, 6, 2))
        wind[2, 1] = (-1e-300, 1.0)    # direction wraps to 0.0
        wind[3] = 0.0                  # calm
        frames = edge_attributes_at(net, wind)
        per_step = np.stack([edge_attributes_at(net, wind[t]) for t in range(7)])
        assert frames.shape == (7, net.n_edges, len(EDGE_FEATURES))
        assert frames.tobytes() == per_step.tobytes()

    def test_panel_on_network_without_edges(self):
        net = build_network([S("a", 0.0, 0.0), S("b", 1.0, 0.0)], threshold_km=5.0)
        assert net.n_edges == 0
        assert edge_attributes_at(net, np.ones((4, 2, 2))).shape == (4, 0, len(EDGE_FEATURES))
        assert edge_attributes_at(net, np.ones((2, 2))).shape == (0, len(EDGE_FEATURES))

    def test_wind_speed_direction_convention(self):
        speed, direction = wind_speed_direction(1.0, 0.0)
        assert speed == pytest.approx(1.0)
        assert direction == pytest.approx(90.0)  # blows toward east
        speed, direction = wind_speed_direction(0.0, -2.0)
        assert direction == pytest.approx(180.0)  # blows toward south

    def test_wind_direction_tiny_negative_u_wraps_to_zero(self):
        speed, direction = wind_speed_direction(-1e-300, 1.0)
        assert speed == 1.0
        assert direction == 0.0

    # Bounded away from the float maximum only because np.hypot overflows
    # to inf there.
    @given(st.floats(min_value=-1e300, max_value=1e300),
           st.floats(min_value=-1e300, max_value=1e300))
    @example(-1e-300, 1.0)
    @settings(max_examples=300)
    def test_wind_direction_range(self, u, v):
        speed, direction = wind_speed_direction(u, v)
        assert speed >= 0.0
        assert 0.0 <= direction < 360.0

    def test_edge_wind_direction_in_range(self):
        net = build_network([S("a", 0.0, 0.0), S("b", 0.027, 0.0)], threshold_km=5.0)
        frame = edge_attributes_at(net, np.tile([-1e-300, 1.0], (2, 1)))
        direction = frame[:, EDGE_FEATURES.index("wind_direction_deg")]
        assert np.all((direction >= 0.0) & (direction < 360.0))


def materialized_edge_stats(network, wind):
    """The standardization statistics as computed from the full (T, E, 5) array."""
    edge_train = edge_attributes_at(network, wind).reshape(-1, len(EDGE_FEATURES))
    if edge_train.shape[0]:
        edge_mean = edge_train.mean(axis=0)
        edge_std = edge_train.std(axis=0)
    else:
        edge_mean = np.zeros(len(EDGE_FEATURES))
        edge_std = np.ones(len(EDGE_FEATURES))
    edge_std = np.where(edge_std > 0, edge_std, 1.0)
    return edge_mean, edge_std


def network_with_isolated_station(seed=31):
    """Ten stations within a few km of each other, plus one 100 km away."""
    rng = np.random.default_rng(seed)
    return build_network(random_stations(10, rng) + [S("far", 26.0, 85.0)], threshold_km=8.0)


class TestEdgeAttributeStats:
    @pytest.mark.parametrize("steps", [1, 2, 57])
    def test_match_materialized_oracle(self, steps):
        net = network_with_isolated_station()
        degree = np.bincount(net.edges[:, 0], minlength=net.n_stations)
        assert degree[-1] == 0 and len(set(degree[:-1].tolist())) > 1
        rng = np.random.default_rng(steps)
        wind = rng.normal(0, 4, size=(steps, net.n_stations, 2))
        wind[0, 3] = 0.0           # calm
        wind[-1, 1] = (-1e-300, 1.0)  # direction wraps to 0.0
        got = edge_attribute_stats(net, wind)
        want = materialized_edge_stats(net, wind)
        for g, w in zip(got, want):
            assert g.shape == (len(EDGE_FEATURES),)
            np.testing.assert_allclose(g, w, rtol=1e-11, atol=0)

    def test_single_field(self):
        net = network_with_isolated_station()
        wind = np.random.default_rng(2).normal(0, 4, size=(net.n_stations, 2))
        for g, w in zip(edge_attribute_stats(net, wind), materialized_edge_stats(net, wind)):
            np.testing.assert_allclose(g, w, rtol=1e-11, atol=0)

    def test_constant_columns_get_unit_std(self):
        net = network_with_isolated_station()
        wind = np.tile([0.0, 2.0], (5, net.n_stations, 1))   # every station blows north at 2 m/s
        mean, std = edge_attribute_stats(net, wind)
        assert mean[2] == 2.0 and mean[3] == 0.0
        assert std[2] == 1.0 and std[3] == 1.0
        for g, w in zip((mean, std), materialized_edge_stats(net, wind)):
            np.testing.assert_allclose(g, w, rtol=1e-11, atol=0)

    @pytest.mark.parametrize("edgeless, steps", [(True, 0), (True, 3), (False, 0)])
    def test_no_rows_give_zero_mean_and_unit_std(self, edgeless, steps):
        net = (build_network([S("a", 0.0, 0.0), S("b", 1.0, 0.0)], threshold_km=5.0) if edgeless
               else network_with_isolated_station())
        wind = np.ones((steps, net.n_stations, 2))
        mean, std = edge_attribute_stats(net, wind)
        assert mean.tolist() == [0.0] * 5 and std.tolist() == [1.0] * 5
        for g, w in zip((mean, std), materialized_edge_stats(net, wind)):
            assert g.tobytes() == w.tobytes()

    def test_wind_shape_checked(self):
        net = network_with_isolated_station()
        with pytest.raises(ValueError, match="wind field must have shape"):
            edge_attribute_stats(net, np.zeros((4, net.n_stations - 1, 2)))

    def test_allocates_less_than_the_attribute_array(self):
        rng = np.random.default_rng(4)
        net = build_network(random_stations(100, rng, extent_deg=0.3), threshold_km=15.0)
        wind = rng.normal(0, 4, size=(200, net.n_stations, 2))
        attribute_bytes = wind.shape[0] * net.n_edges * len(EDGE_FEATURES) * 8
        assert attribute_bytes > 10_000_000
        tracemalloc.start()
        try:
            edge_attribute_stats(net, wind)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < attribute_bytes


class TestBaselineWeights:
    def _net_with_distances_2_and_4(self):
        # a-b ~2 km, b-c ~4 km, a-c ~6 km (outside threshold 5)
        sts = [S("a", 0.0, 0.0), S("b", 0.018, 0.0), S("c", 0.054, 0.0)]
        net = build_network(sts, threshold_km=5.0)
        assert net.n_edges == 4
        return net

    def test_inverse_distance_ratios(self):
        net = self._net_with_distances_2_and_4()
        w = inverse_distance_weights(net)
        d = net.distance_km
        assert np.allclose(w, d.min() / d)
        assert sorted(np.round(w, 6).tolist()) == pytest.approx(
            sorted([1.0, 1.0, d.min() / d.max(), d.min() / d.max()]), rel=1e-6)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(23)
        net = build_network(random_stations(10, rng), threshold_km=8.0)
        w = inverse_distance_weights(net)
        dmin = min(net.distance_km)
        for k in range(net.n_edges):
            assert w[k] == pytest.approx(dmin / net.distance_km[k], rel=1e-12)
        assert np.all((w > 0) & (w <= 1.0))
        assert np.any(w == 1.0)

    def test_network_without_edges_gets_no_weights(self):
        net = build_network([S("a", 25.0, 85.0), S("b", 25.0, 86.5)], threshold_km=10.0)
        assert net.n_edges == 0
        w = inverse_distance_weights(net)
        assert w.shape == (0,) and w.dtype == np.float64


class TestStationIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "stations.csv"
        path.write_text("id,latitude,longitude\np1,25.594,85.137\np2,24.796,85.004\n")
        sts = read_stations_csv(path)
        assert [s.id for s in sts] == ["p1", "p2"]
        assert sts[0].latitude == 25.594

    def test_bad_header(self, tmp_path):
        path = tmp_path / "stations.csv"
        path.write_text("name,lat,lon\np1,1,2\n")
        with pytest.raises(DataError, match="header"):
            read_stations_csv(path)

    def test_missing_file(self, tmp_path):
        path = tmp_path / "stations.csv"
        with pytest.raises(DataError, match=re.escape(f"{path}: cannot read input file")):
            read_stations_csv(path)

    @pytest.mark.parametrize("text, message", [
        ("", ":1: expected header 'id,latitude,longitude', got ''"),
        ("id,latitude,longitude\n\n  \n", ": no stations found"),
        ("id,latitude,longitude\np1,25.0,85.0\n\np2,25.0\n", ":4: expected 3 fields, got 2"),
        ('id,latitude,longitude\n"p\n1",25.0,85.0\np2,25.0\n', ":4: expected 3 fields, got 2"),
        ("id,latitude,longitude\np1,25.0,85.0\np2,95.0,85.0\n", ":3: station 'p2': latitude 95.0 outside"),
        ("id, latitude ,longitude\n p1 , 25.5 ,85.0\n", None),
    ])
    def test_blank_rows_field_counts_and_spaces(self, tmp_path, text, message):
        path = tmp_path / "stations.csv"
        path.write_text(text)
        if message is None:
            assert read_stations_csv(path) == [Station("p1", 25.5, 85.0)]
        else:
            with pytest.raises(DataError, match=re.escape(f"{path}{message}")):
                read_stations_csv(path)

    def test_bad_value_names_line(self, tmp_path):
        path = tmp_path / "stations.csv"
        path.write_text("id,latitude,longitude\np1,25.0,85.0\np2,oops,85.0\n")
        with pytest.raises(DataError, match=":3"):
            read_stations_csv(path)

    def test_coordinate_range_enforced(self):
        with pytest.raises(DataError):
            Station("x", 95.0, 0.0)
        with pytest.raises(DataError):
            Station("x", 0.0, 190.0)
