import math

import pytest
from hypothesis import example, given, strategies as st

from regionrank.geo import (
    EARTH_RADIUS_KM,
    FixtureResolver,
    GeoFixtureError,
    GeoPoint,
    GeoResolutionError,
    haversine_km,
    haversine_row,
)

points = st.builds(
    GeoPoint,
    st.floats(min_value=-90.0, max_value=90.0),
    st.floats(min_value=-180.0, max_value=180.0),
)


def test_antipodal_distance():
    # equator to its antipode is half the circumference
    assert haversine_km(GeoPoint(0, 0), GeoPoint(0, 180)) == pytest.approx(20015.09, abs=0.01)


def test_pole_to_pole():
    assert haversine_km(GeoPoint(90, 0), GeoPoint(-90, 0)) == pytest.approx(
        math.pi * EARTH_RADIUS_KM, abs=1e-6
    )


def test_one_degree_on_equator():
    assert haversine_km(GeoPoint(0, 0), GeoPoint(0, 1)) == pytest.approx(111.195, abs=0.001)


def test_zero_distance():
    p = GeoPoint(48.8566, 2.3522)
    assert haversine_km(p, p) == 0.0


def test_known_city_pair():
    # Paris -> New York, reference value from the spherical model
    paris = GeoPoint(48.8566, 2.3522)
    nyc = GeoPoint(40.7128, -74.0060)
    assert haversine_km(paris, nyc) == pytest.approx(5837, abs=10)


@given(points, points)
def test_symmetry(a, b):
    assert haversine_km(a, b) == pytest.approx(haversine_km(b, a), rel=1e-9, abs=1e-9)


@given(points, points)
def test_bounded_by_half_circumference(a, b):
    d = haversine_km(a, b)
    assert 0.0 <= d <= math.pi * EARTH_RADIUS_KM + 1e-6


@given(points, points, points)
def test_triangle_inequality(a, b, c):
    direct = haversine_km(a, c)
    detour = haversine_km(a, b) + haversine_km(b, c)
    assert direct <= detour + 1e-6 * max(1.0, detour)


def reference_haversine_km(a, b):
    """The single-pair formula before rows existed, kept to pin haversine_row to it."""
    lat1 = math.radians(a.lat)
    lat2 = math.radians(b.lat)
    dlat = math.radians(b.lat - a.lat)
    dlon = math.radians(b.lon - a.lon)

    h = math.sin(dlat / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2) ** 2
    return EARTH_RADIUS_KM * 2 * math.asin(min(1.0, math.sqrt(h)))


@example(GeoPoint(0, 0), [GeoPoint(0, 180)])  # antipodes
@example(GeoPoint(90, 0), [GeoPoint(-90, 0), GeoPoint(90, 45)])  # both poles
@example(GeoPoint(0, -180), [GeoPoint(0, 180), GeoPoint(-33.5, -180), GeoPoint(12.25, 180)])  # +-180 longitude
@example(GeoPoint(48.8566, 2.3522), [GeoPoint(48.8566, 2.3522)])  # identical points
@example(GeoPoint(5e-324, -1e-310), [GeoPoint(-5e-324, 1e-310)])  # subnormal degrees
@example(GeoPoint(12.5, 7.0), [])  # an empty row
@given(points, st.lists(points, max_size=8))
def test_row_is_the_single_pair_formula_bit_for_bit(origin, row_points):
    expected = [reference_haversine_km(origin, p).hex() for p in row_points]
    assert [km.hex() for km in haversine_row(origin, row_points)] == expected
    assert [haversine_km(origin, p).hex() for p in row_points] == expected


@pytest.mark.parametrize("lat,lon", [(91, 0), (-90.5, 0), (0, 181), (0, -180.01)])
def test_geopoint_rejects_out_of_range(lat, lon):
    with pytest.raises(ValueError):
        GeoPoint(lat, lon)


def test_fixture_resolver_hit_and_miss():
    resolver = FixtureResolver({"a.example": GeoPoint(1.0, 2.0)})
    assert resolver.resolve("a.example") == GeoPoint(1.0, 2.0)
    with pytest.raises(GeoResolutionError) as err:
        resolver.resolve("b.example")
    assert err.value.host == "b.example"


def test_fixture_resolver_from_json():
    resolver = FixtureResolver.from_json('{"h.example": {"lat": 10.5, "lon": -20.25}}')
    assert resolver.resolve("h.example") == GeoPoint(10.5, -20.25)


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "[1, 2]",
        '{"h": {"lat": 1}}',
        '{"h": {"lat": 95, "lon": 0}}',
        '{"h": {"lat": true, "lon": 0}}',
        '{"h": {"lat": 0, "lon": "5"}}',
        '{"h": {"lat": null, "lon": 0}}',
        pytest.param('{"h": {"lat": 1%s, "lon": 0}}' % ("0" * 400), id="lat-too-large-for-a-float"),
    ],
)
def test_fixture_resolver_rejects_bad_fixture(text):
    with pytest.raises(GeoFixtureError):
        FixtureResolver.from_json(text)

