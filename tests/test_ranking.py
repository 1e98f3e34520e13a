import json

import pytest
from hypothesis import given, settings, strategies as st

from conftest import dag_specs, gather_sim, make_consistent_case
from regionrank.candidate import build_candidate_graph, total_weight
from regionrank.geo import GeoPoint
from regionrank.metrics import CHANNELS, FAILURE_SENTINEL_MS, CoverageError, MetricMatrix
from regionrank.ranking import RankingError, RankingReport, geo_prefilter, rank, render_report
from regionrank.regions import Region, RegionCatalog
from regionrank.simulator import best_region_oracle
from regionrank.workflow import distinct_nodes, parse_workflow

SPEC1 = parse_workflow("http://s.test/\nhttp://p.test/\n", format="lines")

# published result table for the three-node example; scores ascend even
# though the last region's score is inflated by orders of magnitude
TABLE1 = (
    ("us-east-1", 92530.42),
    ("us-west-2", 186251.487),
    ("us-west-1", 186374.351),
    ("sa-east-1", 366450.152),
    ("ap-northeast-1", 421102.237),
    ("ap-northeast-2", 510982.726),
    ("ap-southeast-1", 532180.129),
    ("eu-west-1", 500178094.532),
)


def catalog_of(n, at=None):
    regions = tuple(
        Region(f"region-{i}", f"probe-{i}.test", at or GeoPoint(float(i), float(i)))
        for i in range(n)
    )
    return RegionCatalog(regions)


def matrix_for(catalog, values):
    """values: region-id -> (distance, latency, rtt) applied to every host."""
    return MetricMatrix(("s.test", "p.test"), {
        channel: {region.id: [values[region.id][slot]] * 2 for region in catalog}
        for slot, channel in enumerate(CHANNELS)
    })


def test_worked_example_recommends_us_east_1(worked_spec, catalog8, worked_env):
    matrix = gather_sim(worked_spec, catalog8, worked_env)
    report = rank(worked_spec, catalog8, matrix)
    assert report.recommended == "us-east-1"
    assert report.prefiltered_regions == ("us-east-1", "us-west-2", "us-west-1")


def test_single_region_catalog():
    catalog = catalog_of(1)
    matrix = matrix_for(catalog, {"region-0": (1.0, 2.0, 3.0)})
    report = rank(SPEC1, catalog, matrix)
    assert report.recommended == "region-0"
    assert len(report.final_table) == 1
    assert report.prefiltered_regions == ("region-0",)


# SPEC1 has three candidate edges, so 1e308 per edge overflows a channel's
# sum, and 5e307 overflows only latency + rtt
@pytest.mark.parametrize("latency, rtt, channel", [
    (1e308, 1.0, "latency"), (1.0, 1e308, "rtt"), (5e307, 5e307, "final"),
])
def test_rank_rejects_a_score_that_overflows(latency, rtt, channel):
    catalog = catalog_of(2)
    matrix = matrix_for(catalog, {"region-0": (1.0, 1.0, 1.0), "region-1": (2.0, latency, rtt)})
    with pytest.raises(RankingError, match=f"^{channel} score of region 'region-1' is not finite: inf$"):
        rank(SPEC1, catalog, matrix, n=2)


def test_rank_agrees_with_oracle_in_consistent_env():
    for seed in (1, 2):
        spec, catalog, env = make_consistent_case(seed)
        matrix = gather_sim(spec, catalog, env)
        best, _ = best_region_oracle(env, spec, catalog)
        assert rank(spec, catalog, matrix, n=len(catalog)).recommended == best


def test_prefilter_keeps_top_n_by_distance():
    catalog = catalog_of(8)
    values = {f"region-{i}": (float(10 - i), 1.0, 1.0) for i in range(8)}
    matrix = matrix_for(catalog, values)
    survivors = geo_prefilter(SPEC1, catalog, matrix, n=3)
    # region-7 has the smallest distance
    assert [r.id for r in survivors] == ["region-7", "region-6", "region-5"]


def test_prefilter_caps_at_catalog_size():
    catalog = catalog_of(8)
    values = {f"region-{i}": (1.0 + i, 1.0, 1.0) for i in range(8)}
    survivors = geo_prefilter(SPEC1, catalog, matrix_for(catalog, values), n=100)
    assert len(survivors) == 8


def test_prefilter_ties_break_lexicographically():
    catalog = catalog_of(3)
    values = {rid: (5.0, 1.0, 1.0) for rid in ("region-0", "region-1", "region-2")}
    survivors = geo_prefilter(SPEC1, catalog, matrix_for(catalog, values), n=2)
    assert [r.id for r in survivors] == ["region-0", "region-1"]


def test_prefilter_rejects_nonpositive_n():
    catalog = catalog_of(2)
    values = {"region-0": (1.0, 1.0, 1.0), "region-1": (2.0, 1.0, 1.0)}
    with pytest.raises(ValueError):
        geo_prefilter(SPEC1, catalog, matrix_for(catalog, values), n=0)
    with pytest.raises(ValueError):
        rank(SPEC1, catalog, matrix_for(catalog, values), n=0)


def test_final_score_averages_latency_and_rtt():
    catalog = catalog_of(2)
    values = {"region-0": (1.0, 10.0, 30.0), "region-1": (2.0, 100.0, 300.0)}
    report = rank(SPEC1, catalog, matrix_for(catalog, values), n=2)
    # 3 candidate edges; final = (3*rtt + 3*latency) / 2 per region
    assert dict(report.final_table)["region-0"] == pytest.approx(3 * (10.0 + 30.0) / 2)
    assert dict(report.final_table)["region-1"] == pytest.approx(3 * (100.0 + 300.0) / 2)
    assert report.recommended == "region-0"


def test_full_catalog_rank_is_total_order_smaller_n_is_prefix():
    spec, catalog, env = make_consistent_case(seed=11)
    matrix = gather_sim(spec, catalog, env)
    full = rank(spec, catalog, matrix, n=len(catalog))
    assert len(full.final_table) == len(catalog)
    small = rank(spec, catalog, matrix, n=3)
    assert small.prefiltered_regions == tuple(rid for rid, _ in full.distance_table[:3])
    assert set(rid for rid, _ in small.final_table) == set(small.prefiltered_regions)


@settings(max_examples=30)
@given(st.floats(min_value=0.001, max_value=1000.0))
def test_argmin_invariant_under_scaling(c):
    catalog = catalog_of(4)
    values = {f"region-{i}": (float(i + 1), 10.0 * (i + 2), 25.0 * (i + 1)) for i in range(4)}
    base = rank(SPEC1, catalog, matrix_for(catalog, values), n=4)
    scaled_values = {rid: (d, l * c, r * c) for rid, (d, l, r) in values.items()}
    scaled = rank(SPEC1, catalog, matrix_for(catalog, scaled_values), n=4)
    assert scaled.recommended == base.recommended
    assert [rid for rid, _ in scaled.final_table] == [rid for rid, _ in base.final_table]
    assert [rid for rid, _ in scaled.latency_table] == [rid for rid, _ in base.latency_table]


def test_failed_channel_region_never_wins_against_healthy_one():
    catalog = catalog_of(2)
    matrix = MetricMatrix(("s.test", "p.test"), {
        "distance": {"region-0": [1.0, 1.0], "region-1": [2.0, 2.0]},
        "latency": {"region-0": [None, 1.0], "region-1": [400.0, 400.0]},  # a failed latency
        "rtt": {"region-0": [5.0, 5.0], "region-1": [900.0, 900.0]},
    })
    report = rank(SPEC1, catalog, matrix, n=2)
    assert report.recommended == "region-1"


def _pair_by_pair(spec, hosts, table):
    """sum of w * m over each region's (host, value) pairs, host by host in host_weights order, as float.hex."""
    totals = {}
    for region_id, row in table.items():
        values = dict(zip(hosts, row))
        total = 0.0
        for host, weight in spec.host_weights.items():
            value = values[host]
            total += weight * (FAILURE_SENTINEL_MS if value is None else value)
        totals[region_id] = total.hex()
    return totals


# a third of a float uses every mantissa bit, so the order of the sum shows
_METRIC = st.floats(min_value=0.0, max_value=3e7).map(lambda value: value / 3)
# what the kernel is given: every pair, one region without rows, one host
# without a column, or one region without probes
_GAPS = ("none", "region", "host", "probes")


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_kernel_totals_equal_a_pair_by_pair_sum_bit_for_bit(data):
    spec = data.draw(dag_specs())
    # the gather's columns follow distinct_nodes, which need not be the
    # host_weights (first edge) order the kernel sums in
    hosts = [node.host for node in distinct_nodes(spec)]
    region_ids = [f"region-{j}" for j in range(data.draw(st.integers(1, 4)))]
    unlocated = data.draw(st.sets(st.sampled_from(hosts)))
    maybe_failed = st.one_of(st.none(), _METRIC)
    rows = {
        "distance": {r: [None if h in unlocated else data.draw(_METRIC) for h in hosts] for r in region_ids},
        "latency": {r: [data.draw(maybe_failed) for _ in hosts] for r in region_ids},
        "rtt": {r: [data.draw(maybe_failed) for _ in hosts] for r in region_ids},
    }
    catalog = RegionCatalog(tuple(Region(r, f"probe-{r}.test", GeoPoint(0.0, 0.0)) for r in region_ids))
    first_host = next(iter(spec.host_weights))
    gap = data.draw(st.sampled_from(_GAPS))
    if gap != "none":
        gone = data.draw(st.sampled_from(hosts if gap == "host" else region_ids))
        if gap == "region":
            rows = {channel: {r: row for r, row in table.items() if r != gone} for channel, table in rows.items()}
            expected = f"matrix has no entry for region {gone!r} and host {first_host!r}"
        elif gap == "host":
            kept = [column for column, h in enumerate(hosts) if h != gone]
            hosts = [hosts[column] for column in kept]
            rows = {channel: {r: [row[column] for column in kept] for r, row in table.items()}
                    for channel, table in rows.items()}
            expected = f"matrix has no entry for region {region_ids[0]!r} and host {gone!r}"
        else:
            rows["latency"].pop(gone)
            rows["rtt"].pop(gone)
            expected = f"the latency channel of region {gone!r} and host {first_host!r} was not probed"
        matrix = MetricMatrix(tuple(hosts), rows)
        with pytest.raises(CoverageError) as info:
            rank(spec, catalog, matrix, n=len(region_ids))
        assert str(info.value) == expected
        return

    matrix = MetricMatrix(tuple(hosts), rows)
    report = rank(spec, catalog, matrix, n=len(region_ids))
    for table, channel in (
        (report.distance_table, "distance"),
        (report.latency_table, "latency"),
        (report.rtt_table, "rtt"),
    ):
        reference = _pair_by_pair(spec, hosts, rows[channel])
        assert {region_id: score.hex() for region_id, score in table} == reference
        assert {
            region.id: total_weight(build_candidate_graph(spec, region), channel, matrix).hex()
            for region in catalog
        } == reference


def test_tables_sorted_by_score_then_id():
    spec, catalog, env = make_consistent_case(seed=23)
    matrix = gather_sim(spec, catalog, env)
    report = rank(spec, catalog, matrix, n=8)
    for table in (report.distance_table, report.latency_table,
                  report.rtt_table, report.final_table):
        assert list(table) == sorted(table, key=lambda row: (row[1], row[0]))


def test_report_rendering_deterministic():
    spec, catalog, env = make_consistent_case(seed=4)
    matrix = gather_sim(spec, catalog, env)
    a = rank(spec, catalog, matrix)
    b = rank(spec, catalog, matrix)
    assert render_report(a, "table") == render_report(b, "table")
    assert render_report(a, "json") == render_report(b, "json")


def table1_report():
    synth = tuple((rid, float(i)) for i, (rid, _) in enumerate(TABLE1))
    return RankingReport(
        recommended=TABLE1[0][0],
        prefiltered_regions=tuple(rid for rid, _ in TABLE1),
        distance_table=synth,
        latency_table=synth,
        rtt_table=synth,
        final_table=TABLE1,
    )


def test_render_table_mirrors_published_layout():
    text = render_report(table1_report(), "table")
    lines = text.splitlines()
    start = lines.index("EC2 endpoint | final score")
    rows = lines[start + 1 : start + 9]
    assert rows[0].startswith("us-east-1 | 92530.42")
    assert rows[-1].startswith("eu-west-1 | 500178094.532")
    assert len(rows) == 8


def test_render_single_row_report():
    report = RankingReport(
        recommended="only",
        prefiltered_regions=("only",),
        distance_table=(("only", 1.0),),
        latency_table=(("only", 2.0),),
        rtt_table=(("only", 3.0),),
        final_table=(("only", 2.5),),
    )
    text = render_report(report, "table")
    assert "only | 2.500" in text


def assert_json_matches(report):
    doc = json.loads(render_report(report, "json"))
    assert doc["recommended"] == report.recommended
    assert doc["prefilter_n"] == len(report.prefiltered_regions)
    for name in ("distance_table", "latency_table", "rtt_table", "final_table"):
        assert [tuple(row) for row in doc[name]] == list(getattr(report, name))


def test_json_round_trip():
    assert_json_matches(table1_report())


def test_json_round_trip_after_real_rank(worked_spec, catalog8, worked_env):
    matrix = gather_sim(worked_spec, catalog8, worked_env)
    assert_json_matches(rank(worked_spec, catalog8, matrix))


def test_render_report_rejects_unknown_format():
    with pytest.raises(ValueError):
        render_report(table1_report(), "yaml")
