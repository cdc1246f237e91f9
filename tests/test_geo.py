import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hazecast.errors import DataError
from hazecast.geo import (
    EDGE_FEATURES,
    Station,
    advection_coefficient,
    build_network,
    edge_attributes_at,
    haversine_km,
    inverse_distance_weights,
    initial_bearing_deg,
    read_stations_csv,
    wind_speed_direction,
    write_edge_list,
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


class TestHaversine:
    def test_identical_points_zero(self):
        a = S("a", 25.0, 85.0)
        assert haversine_km(a, S("b", 25.0, 85.0)) == 0.0

    def test_quarter_circumference(self):
        d = haversine_km(S("a", 0.0, 0.0), S("b", 0.0, 90.0))
        assert d == pytest.approx(QUARTER_CIRCUMFERENCE_KM, rel=1e-9)

    def test_against_independent_great_circle_oracle(self):
        d = haversine_km(S("a", 25.594, 85.137), S("b", 24.796, 85.004))
        assert d == pytest.approx(DIST_PATNA_GAYA_KM, rel=1e-9)

    @given(coord, coord)
    @settings(max_examples=200)
    def test_symmetry(self, p, q):
        a, b = S("a", *p), S("b", *q)
        dab, dba = haversine_km(a, b), haversine_km(b, a)
        assert dab >= 0.0
        assert dab == pytest.approx(dba, rel=1e-9, abs=1e-12)


class TestBearing:
    def test_due_north(self):
        assert initial_bearing_deg(S("a", 0, 0), S("b", 10, 0)) == pytest.approx(0.0, abs=1e-12)

    def test_due_east_along_equator(self):
        assert initial_bearing_deg(S("a", 0, 0), S("b", 0, 10)) == pytest.approx(90.0, abs=1e-12)

    def test_against_spherical_trig_oracle(self):
        b1 = initial_bearing_deg(S("a", 25.594, 85.137), S("b", 24.796, 85.004))
        b2 = initial_bearing_deg(S("a", 10.5, -3.25), S("b", 12.75, 4.5))
        assert b1 == pytest.approx(BEARING_PATNA_GAYA_DEG, abs=1e-9)
        assert b2 == pytest.approx(BEARING_RANDOM_PAIR_DEG, abs=1e-9)

    @given(coord, coord)
    @settings(max_examples=200)
    def test_range(self, p, q):
        # Coincident and antipodal pairs have no bearing and are rejected
        # (see the *_rejected tests below), with the same 1e-9 tolerance.
        antipodal = abs(p[0] + q[0]) < 1e-9 and abs(abs(p[1] - q[1]) - 180.0) < 1e-9
        if p == q or antipodal:
            return
        b = initial_bearing_deg(S("a", *p), S("b", *q))
        assert 0.0 <= b < 360.0

    @pytest.mark.parametrize("p,q", NEAR_NORTH_PAIRS)
    def test_tiny_negative_angle_wraps_to_zero(self, p, q):
        assert initial_bearing_deg(S("a", *p), S("b", *q)) == 0.0

    @pytest.mark.parametrize("p,q", NEAR_NORTH_PAIRS)
    def test_network_bearings_in_range(self, p, q):
        # ~111 km apart, so the threshold keeps both directions.
        net = build_network([S("a", *p), S("b", *q)], threshold_km=200.0)
        assert net.n_edges == 2
        assert np.all((net.bearing_deg >= 0.0) & (net.bearing_deg < 360.0))

    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError, match="undefined bearing"):
            initial_bearing_deg(S("a", 10, 20), S("b", 10, 20))

    def test_pole_rejected(self):
        with pytest.raises(ValueError, match="pole"):
            initial_bearing_deg(S("a", 90.0, 0.0), S("b", 10, 20))

    def test_antipodal_rejected(self):
        with pytest.raises(ValueError, match="antipodal"):
            initial_bearing_deg(S("a", 10.0, 20.0), S("b", -10.0, -160.0))


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
        assert haversine_km(*sts) < 5.0
        net = build_network(sts, threshold_km=5.0)
        assert sorted(map(tuple, net.edges.tolist())) == [(0, 1), (1, 0)]

    def test_pair_above_threshold(self):
        sts = [S("a", 0.0, 0.0), S("b", 0.063, 0.0)]
        assert haversine_km(*sts) > 5.0
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
                if i != j and haversine_km(sts[i], sts[j]) <= thr
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
            assert net.distance_km[k] == pytest.approx(haversine_km(sts[i], sts[j]), rel=1e-12)
            assert net.bearing_deg[k] == pytest.approx(
                initial_bearing_deg(sts[i], sts[j]), abs=1e-12)

    def test_empty_station_list(self):
        with pytest.raises(DataError):
            build_network([], threshold_km=5.0)

    def test_single_station(self):
        with pytest.raises(DataError):
            build_network([S("a", 0, 0)], threshold_km=5.0)

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


class TestAdvection:
    def test_wind_aligned_with_edge(self):
        assert advection_coefficient(5.0, 90.0, 90.0) == pytest.approx(5.0)

    def test_perpendicular_wind(self):
        assert advection_coefficient(5.0, 0.0, 90.0) == pytest.approx(0.0, abs=1e-12)

    def test_opposing_wind_clipped(self):
        assert advection_coefficient(5.0, 270.0, 90.0) == 0.0

    def test_negative_speed_rejected(self):
        with pytest.raises(ValueError):
            advection_coefficient(-1.0, 0.0, 0.0)

    @given(st.floats(min_value=0, max_value=50),
           st.floats(min_value=0, max_value=360),
           st.floats(min_value=0, max_value=360))
    @settings(max_examples=300)
    def test_nonnegative_and_bounded(self, speed, direction, bearing):
        a = advection_coefficient(speed, direction, bearing)
        assert 0.0 <= a <= speed + 1e-12

    def test_maximum_at_alignment(self):
        speed = 7.3
        aligned = advection_coefficient(speed, 123.4, 123.4)
        assert aligned == pytest.approx(speed, rel=1e-15)
        for direction in np.linspace(0, 359, 120):
            assert advection_coefficient(speed, direction, 123.4) <= aligned + 1e-12


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

    def test_edge_list_export(self, tmp_path):
        rng = np.random.default_rng(2)
        net = build_network(random_stations(4, rng), threshold_km=12.0)
        out = tmp_path / "edges.csv"
        write_edge_list(net, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "src,dst,distance_km,bearing_deg"
        assert len(lines) == net.n_edges + 1
