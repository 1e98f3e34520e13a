import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import regionrank
from regionrank.metrics import _split_host
from regionrank.workflow import (
    ROLE_PROCESSOR,
    ROLE_SOURCE,
    ServiceNode,
    WorkflowError,
    WorkflowSpec,
    distinct_nodes,
    endpoint_host,
    generate_random_workflow,
    parse_workflow,
    render_workflow,
)

THREE_LINES = """\
http://wikimedia.org/images/sample.png
http://planetlab-03.cs.princeton.edu/
http://cs-planetlab4.cs.surrey.sfu.ca/
"""


def chain(*hosts):
    text = "\n".join(f"http://{h}/" for h in hosts)
    return parse_workflow(text, format="lines")


def test_endpoint_host_lowercases_and_drops_default_port():
    assert endpoint_host("http://Example.COM/path") == "example.com"
    assert endpoint_host("http://example.com:80/") == "example.com"
    assert endpoint_host("https://example.com:443/") == "example.com"
    assert endpoint_host("http://example.com:8080/") == "example.com:8080"
    assert endpoint_host("https://example.com:80/") == "example.com:80"


def test_endpoint_host_brackets_ipv6_literals():
    assert endpoint_host("http://[::1]/") == "[::1]"
    assert endpoint_host("http://[::1]:80/") == "[::1]"
    assert endpoint_host("http://[::1]:8080/") == "[::1]:8080"
    assert endpoint_host("http://[2001:DB8::1]:8080/x") == "[2001:db8::1]:8080"


_DEFAULT_PORTS = {"http": 80, "https": 443}
_hostnames = st.lists(
    st.from_regex(r"[A-Za-z0-9]([A-Za-z0-9-]{0,8}[A-Za-z0-9])?", fullmatch=True),
    min_size=1,
    max_size=3,
).map(".".join)
_ipv6_literals = st.tuples(st.ip_addresses(v=6).map(str), st.booleans()).map(
    lambda case: case[0].upper() if case[1] else case[0]
)


@st.composite
def url_cases(draw):
    """(url, hostname, port or None, scheme): mixed-case names, IPv6 literals, any port."""
    scheme = draw(st.sampled_from(sorted(_DEFAULT_PORTS)))
    name = draw(st.one_of(_hostnames, _ipv6_literals))
    port = draw(st.one_of(st.none(), st.just(_DEFAULT_PORTS[scheme]), st.integers(1, 65535)))
    netloc = f"[{name}]" if ":" in name else name
    if port is not None:
        netloc += f":{port}"
    path = draw(st.sampled_from(["", "/", "/a/b.bin?q=1"]))
    return f"{scheme}://{netloc}{path}", name, port, scheme


@given(url_cases())
def test_endpoint_host_canonical_key(case):
    url, name, port, scheme = case
    key = endpoint_host(url)
    assert key == key.lower()
    assert key.startswith("[") == (":" in name)
    expected_port = None if port == _DEFAULT_PORTS[scheme] else port
    assert _split_host(key) == (name.lower(), expected_port)


def test_lines_chain_parses_each_url_at_most_twice(urlsplit_calls):
    urls = [f"http://h{i % 7}.test:{8000 + i % 3}/" for i in range(101)]
    spec = parse_workflow("\n".join(urls) + "\n", format="lines")
    assert len(spec.nodes) == len(urls)
    assert len(urlsplit_calls) <= 2 * len(urls)
    urlsplit_calls.clear()
    assert len({node.host for node in spec.nodes}) == 21
    assert urlsplit_calls == []


def test_parse_lines_three_node_chain():
    spec = parse_workflow(THREE_LINES, format="lines")
    assert [n.role for n in spec.nodes] == [ROLE_SOURCE, ROLE_PROCESSOR, ROLE_PROCESSOR]
    assert spec.hops == (
        ("wikimedia.org", "planetlab-03.cs.princeton.edu"),
        ("planetlab-03.cs.princeton.edu", "cs-planetlab4.cs.surrey.sfu.ca"),
    )


def test_parse_lines_source_only():
    spec = parse_workflow("http://data.example/set.bin\n", format="lines")
    assert len(spec.nodes) == 1
    assert spec.nodes[0].role == ROLE_SOURCE
    assert spec.hops == ()


def test_parse_lines_skips_comments_and_blanks():
    text = "# a comment\n\nhttp://a.example/\n  \n# more\nhttp://b.example/\n"
    spec = parse_workflow(text, format="lines")
    assert [n.host for n in spec.nodes] == ["a.example", "b.example"]


def test_parse_lines_name_comment():
    spec = parse_workflow("# name: my-flow\nhttp://a.example/\n", format="lines")
    assert spec.name == "my-flow"


def test_parse_lines_duplicate_hosts_get_distinct_ids():
    spec = chain("a.example", "b.example", "a.example")
    assert [n.id for n in spec.nodes] == ["a.example", "b.example", "a.example#2"]


def test_parse_lines_reports_line_number_for_bad_url():
    with pytest.raises(WorkflowError, match="line 3"):
        parse_workflow("http://a.example/\n\nnot-a-url\n", format="lines")


@pytest.mark.parametrize("text", ["", "   \n", "# only comments\n"])
def test_parse_rejects_empty_input(text):
    with pytest.raises(WorkflowError):
        parse_workflow(text, format="lines")


def test_parse_dag_multi_source_join():
    doc = {
        "name": "join-flow",
        "sources": ["http://s1.example/", "http://s2.example/"],
        "nodes": [
            {"id": "s1", "url": "http://s1.example/"},
            {"id": "s2", "url": "http://s2.example/"},
            {"id": "merge", "url": "http://m.example/"},
        ],
        "hops": [["s1", "merge"], ["s2", "merge"]],
    }
    spec = parse_workflow(json.dumps(doc), format="dag")
    assert {n.id for n in spec.sources} == {"s1", "s2"}
    assert {n.id: n.role for n in spec.nodes}["merge"] == ROLE_PROCESSOR


def test_parse_dag_cycle_rejected():
    doc = {
        "sources": ["http://s.example/"],
        "nodes": [
            {"id": "s", "url": "http://s.example/"},
            {"id": "n1", "url": "http://n1.example/"},
            {"id": "n2", "url": "http://n2.example/"},
        ],
        "hops": [["s", "n1"], ["n1", "n2"], ["n2", "n1"]],
    }
    with pytest.raises(WorkflowError, match="cycle"):
        parse_workflow(json.dumps(doc), format="dag")


def test_parse_dag_unknown_hop_id_rejected():
    doc = {
        "sources": ["http://s.example/"],
        "nodes": [{"id": "s", "url": "http://s.example/"}],
        "hops": [["s", "ghost"]],
    }
    with pytest.raises(WorkflowError, match="ghost"):
        parse_workflow(json.dumps(doc), format="dag")


def test_parse_dag_source_must_be_declared_in_nodes():
    doc = {
        "sources": ["http://missing.example/"],
        "nodes": [{"id": "s", "url": "http://s.example/"}],
        "hops": [],
    }
    with pytest.raises(WorkflowError, match="missing.example"):
        parse_workflow(json.dumps(doc), format="dag")


def test_parse_dag_names_the_first_undeclared_source_under_any_hash_seed(tmp_path):
    doc = {
        "sources": [f"http://x{i}.example/" for i in (1, 2, 3)],
        "nodes": [{"id": "s", "url": "http://s.example/"}],
        "hops": [],
    }
    path = tmp_path / "flow.json"
    path.write_text(json.dumps(doc))
    script = (
        "import sys\n"
        "from regionrank.workflow import WorkflowError, parse_workflow\n"
        "try:\n"
        "    parse_workflow(open(sys.argv[1]).read(), format='dag')\n"
        "except WorkflowError as exc:\n"
        "    print(exc)\n"
    )
    package_root = str(Path(regionrank.__file__).resolve().parents[1])
    for seed in ("1", "2", "3", "4"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": package_root}
        result = subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                                capture_output=True, text=True, timeout=60, check=True)
        assert result.stdout == "source URL 'http://x1.example/' is not declared in nodes\n"


def _dag_with(position, value):
    doc = {
        "sources": ["http://s.example/"],
        "nodes": [{"id": "s", "url": "http://s.example/"}, {"id": "p", "url": "http://p.example/"}],
        "hops": [["s", "p"]],
    }
    if position == "name":
        doc["name"] = value
    elif position == "source":
        doc["sources"].append(value)
    elif position in ("id", "url"):
        doc["nodes"][1][position] = value
    else:
        doc["hops"][0][position] = value
    return json.dumps(doc)


@pytest.mark.parametrize("value", [None, ["x"], 1, True])
@pytest.mark.parametrize("position, message", [
    ("name", "malformed dag file: name .* is not a string"),
    ("source", "sources entry .* is not a string"),
    ("id", "malformed dag node entry .*id and url must be strings"),
    ("url", "malformed dag node entry .*id and url must be strings"),
    (0, "malformed hop entry .*strings"),
    (1, "malformed hop entry .*strings"),
])
def test_parse_dag_requires_json_strings(position, message, value):
    with pytest.raises(WorkflowError, match=message):
        parse_workflow(_dag_with(position, value), format="dag")


def test_spec_requires_a_source():
    with pytest.raises(WorkflowError, match="source"):
        WorkflowSpec(
            name="x",
            nodes=(ServiceNode("p", "http://p.example/", ROLE_PROCESSOR),),
            hops=(),
        )


def test_spec_rejects_unreachable_processor():
    nodes = (
        ServiceNode("s", "http://s.example/", ROLE_SOURCE),
        ServiceNode("orphan", "http://o.example/", ROLE_PROCESSOR),
    )
    with pytest.raises(WorkflowError, match="unreachable"):
        WorkflowSpec(name="x", nodes=nodes, hops=())


def test_spec_rejects_processor_fed_only_by_unreachable_ones():
    nodes = (
        ServiceNode("s", "http://s.example/", ROLE_SOURCE),
        ServiceNode("a", "http://a.example/", ROLE_PROCESSOR),
        ServiceNode("b", "http://b.example/", ROLE_PROCESSOR),
    )
    with pytest.raises(WorkflowError, match="unreachable"):
        WorkflowSpec(name="x", nodes=nodes, hops=(("a", "b"),))


def test_spec_reports_a_cycle_before_unreachable_processors():
    nodes = (
        ServiceNode("s", "http://s.example/", ROLE_SOURCE),
        ServiceNode("a", "http://a.example/", ROLE_PROCESSOR),
        ServiceNode("b", "http://b.example/", ROLE_PROCESSOR),
    )
    with pytest.raises(WorkflowError, match="cycle"):
        WorkflowSpec(name="x", nodes=nodes, hops=(("a", "b"), ("b", "a")))


def test_spec_rejects_duplicate_ids():
    nodes = (
        ServiceNode("s", "http://s.example/", ROLE_SOURCE),
        ServiceNode("s", "http://t.example/", ROLE_SOURCE),
    )
    with pytest.raises(WorkflowError, match="duplicate"):
        WorkflowSpec(name="x", nodes=nodes, hops=())


@st.composite
def dag_documents(draw):
    """Dag documents that hit every validation error, and valid DAGs."""
    n = draw(st.integers(1, 7))
    ids = [f"n{j}" for j in range(n)]
    # 7 of 0..9, not 0: Hypothesis draws boundary values far more often
    if n > 1 and draw(st.integers(0, 9)) == 7:
        ids[draw(st.integers(1, n - 1))] = ids[draw(st.integers(0, n - 2))]
    nodes = [{"id": node_id, "url": f"http://h{j}.test/"} for j, node_id in enumerate(ids)]
    sources = [nodes[j]["url"] for j in draw(st.lists(st.integers(0, n - 1), max_size=3))]
    # hops run forward in a random node order, which need not be file order
    order = draw(st.permutations(range(n)))
    position = {j: i for i, j in enumerate(order)}
    drawn = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=10))
    pairs = [(a, b) if position[a] < position[b] else (b, a) for a, b in drawn if a != b]
    if draw(st.booleans()):
        # each node fed from an earlier one, from a source: mostly valid DAGs
        pairs += [(order[draw(st.integers(0, i - 1))], order[i]) for i in range(1, n)]
        sources.append(nodes[order[0]]["url"])
    if pairs and draw(st.integers(0, 4)) == 3:
        a, b = draw(st.sampled_from(pairs))
        pairs.append((b, a))
    hops = [[ids[a], ids[b]] for a, b in draw(st.permutations(pairs))]
    if hops and draw(st.integers(0, 9)) == 7:
        hops[draw(st.integers(0, len(hops) - 1))][draw(st.integers(0, 1))] = "ghost"
    return {"name": "w", "sources": sources, "nodes": nodes, "hops": hops}


def reference_validation(doc):
    """The error parse_workflow must raise for a dag document, or the hop order it must set.

    Checks run in the documented order; hop_order is the longest hop path to
    each hop's from-node, by fixpoint relaxation, then file order.
    """
    ids = []
    for node in doc["nodes"]:
        if node["id"] in ids:
            return f"duplicate node id {node['id']!r}"
        ids.append(node["id"])
    hops = [tuple(hop) for hop in doc["hops"]]
    for hop in hops:
        for node_id in hop:
            if node_id not in ids:
                return f"unknown id {node_id!r} in hop list"
    reached = {node["id"] for node in doc["nodes"] if node["url"] in doc["sources"]}
    if not reached:
        return "workflow needs at least one source node"
    # an acyclic graph's longest path has at most len(ids) - 1 hops, so
    # relaxation settles within len(ids) passes; on a cycle it never settles
    depth = dict.fromkeys(ids, 0)
    for _ in range(len(ids) + 1):
        relaxed = [(u, v) for u, v in hops if depth[v] < depth[u] + 1]
        for u, v in relaxed:
            depth[v] = max(depth[v], depth[u] + 1)
        if not relaxed:
            break
    else:
        return "cycle detected in workflow hops"
    while True:
        grown = reached | {v for u, v in hops if u in reached}
        if grown == reached:
            break
        reached = grown
    for node in doc["nodes"]:
        if node["url"] not in doc["sources"] and node["id"] not in reached:
            return f"processor {node['id']!r} is unreachable from any source"
    return tuple(sorted(hops, key=lambda hop: depth[hop[0]]))


# v's shallow feeder z is settled after its deep feeder y; v's depth stays 3
@example({
    "name": "w",
    "sources": ["http://s.test/"],
    "nodes": [{"id": n, "url": f"http://{n}.test/"} for n in ("s", "x", "y", "z", "v", "w")],
    "hops": [["v", "w"], ["y", "v"], ["s", "z"], ["s", "x"], ["x", "y"], ["z", "v"]],
})
@given(dag_documents())
def test_validation_matches_reference(doc):
    expected = reference_validation(doc)
    if isinstance(expected, str):
        with pytest.raises(WorkflowError) as info:
            parse_workflow(json.dumps(doc), format="dag")
        assert str(info.value) == expected
    else:
        assert parse_workflow(json.dumps(doc), format="dag").hop_order == expected


def test_node_rejects_relative_and_schemeless_urls():
    for url in ["ftp://a.example/", "/relative/path", "a.example", "http:///nohost"]:
        with pytest.raises(WorkflowError):
            ServiceNode("n", url, ROLE_PROCESSOR)


def test_distinct_nodes_dedups_by_host():
    spec = chain("a.example", "b.example", "a.example")
    assert [n.host for n in distinct_nodes(spec)] == ["a.example", "b.example"]


def test_distinct_nodes_worked_example():
    spec = parse_workflow(THREE_LINES, format="lines")
    hosts = [n.host for n in distinct_nodes(spec)]
    assert hosts == [
        "wikimedia.org",
        "planetlab-03.cs.princeton.edu",
        "cs-planetlab4.cs.surrey.sfu.ca",
    ]


def test_distinct_nodes_source_only():
    spec = parse_workflow("http://only.example/\n", format="lines")
    assert [n.host for n in distinct_nodes(spec)] == ["only.example"]


# --- values derived once per workflow ---


def test_specs_parsed_from_the_same_text_compare_and_hash_equal():
    first, second = parse_workflow(THREE_LINES), parse_workflow(THREE_LINES)
    assert first == second and hash(first) == hash(second)
    hosts = ("wikimedia.org", "planetlab-03.cs.princeton.edu", "cs-planetlab4.cs.surrey.sfu.ca")
    assert second.edge_peers == (hosts[0], hosts[1], hosts[1], hosts[2], hosts[2])
    assert second.distinct_peers == hosts
    assert second.invocations == 2


def test_replace_derives_the_values_again(derivations):
    spec = parse_workflow(THREE_LINES)
    renamed = replace(spec, name="renamed")
    shorter = replace(spec, nodes=spec.nodes[:2], hops=spec.hops[:1])
    assert [id(s) for s in derivations] == [id(spec), id(renamed), id(shorter)]
    assert (renamed.edge_peers, renamed.distinct_peers, renamed.invocations) == (
        spec.edge_peers, spec.distinct_peers, spec.invocations
    )
    assert shorter.edge_peers == spec.edge_peers[:3]
    assert shorter.distinct_peers == spec.distinct_peers[:2]
    assert shorter.invocations == 1


def test_round_trip_lines():
    spec = parse_workflow("# name: rt\n" + THREE_LINES, format="lines")
    assert parse_workflow(render_workflow(spec, format="lines"), format="lines") == spec


def test_round_trip_dag():
    doc = {
        "name": "rt-dag",
        "sources": ["http://s1.example/", "http://s2.example/"],
        "nodes": [
            {"id": "s1", "url": "http://s1.example/"},
            {"id": "s2", "url": "http://s2.example/"},
            {"id": "m", "url": "http://m.example/"},
            {"id": "t", "url": "http://t.example/"},
        ],
        "hops": [["s1", "m"], ["s2", "m"], ["m", "t"]],
    }
    spec = parse_workflow(json.dumps(doc), format="dag")
    assert parse_workflow(render_workflow(spec, format="dag"), format="dag") == spec


_names = st.from_regex(r"[A-Za-z0-9_-]{1,12}", fullmatch=True)
_urls = st.lists(url_cases().map(lambda case: case[0]), min_size=1, max_size=4)


@given(_names, _urls, st.data())
def test_round_trip_lines_property(name, pool, data):
    chain = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    spec = parse_workflow(f"# name: {name}\n" + "\n".join(chain) + "\n", format="lines")
    assert parse_workflow(render_workflow(spec, format="lines"), format="lines") == spec


@given(st.text(max_size=12), _urls, st.data())
def test_round_trip_dag_property(name, pool, data):
    # hops run from a lower to a higher index and every unfed node is a
    # source, so each processor is reachable
    urls = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    pairs = [(i, j) for i in range(len(urls)) for j in range(i + 1, len(urls))]
    hops = data.draw(st.lists(st.sampled_from(pairs), max_size=12)) if pairs else []
    fed = {j for _, j in hops}
    doc = {
        "name": name,
        "sources": [url for i, url in enumerate(urls) if i not in fed],
        "nodes": [{"id": f"n{i}", "url": url} for i, url in enumerate(urls)],
        "hops": [[f"n{i}", f"n{j}"] for i, j in hops],
    }
    spec = parse_workflow(json.dumps(doc), format="dag")
    assert parse_workflow(render_workflow(spec, format="dag"), format="dag") == spec


def test_render_lines_rejects_non_chain():
    doc = {
        "sources": ["http://s1.example/", "http://s2.example/"],
        "nodes": [
            {"id": "s1", "url": "http://s1.example/"},
            {"id": "s2", "url": "http://s2.example/"},
            {"id": "m", "url": "http://m.example/"},
        ],
        "hops": [["s1", "m"], ["s2", "m"]],
    }
    spec = parse_workflow(json.dumps(doc), format="dag")
    with pytest.raises(WorkflowError, match="chain"):
        render_workflow(spec, format="lines")


POOL = [f"http://svc{i}.example/" for i in range(6)]


def test_generate_random_workflow_shape_and_determinism():
    a = generate_random_workflow(POOL, length=12, seed=42, source="http://src.example/")
    b = generate_random_workflow(POOL, length=12, seed=42, source="http://src.example/")
    assert a == b
    assert len(a.nodes) == 13
    assert a.nodes[0].role == ROLE_SOURCE
    assert len(a.hops) == 12
    assert {n.endpoint for n in a.nodes[1:]} <= set(POOL)


def test_generate_random_workflow_single_node_pool():
    spec = generate_random_workflow(
        ["http://one.example/"], length=3, seed=0, source="http://src.example/"
    )
    assert [n.endpoint for n in spec.nodes[1:]] == ["http://one.example/"] * 3
    # replacement sampling collapses to two distinct hosts
    assert len(distinct_nodes(spec)) == 2


def test_generate_random_workflow_rejects_bad_input():
    with pytest.raises(WorkflowError):
        generate_random_workflow([], length=3, seed=0, source="http://s.example/")
    with pytest.raises(WorkflowError):
        generate_random_workflow(POOL, length=0, seed=0, source="http://s.example/")


@given(st.integers(min_value=1, max_value=20), st.integers(min_value=0, max_value=2**63 - 1))
def test_generate_random_workflow_is_valid_chain(length, seed):
    spec = generate_random_workflow(POOL, length=length, seed=seed, source="http://src.example/")
    ids = [n.id for n in spec.nodes]
    assert spec.hops == tuple(zip(ids, ids[1:]))
    assert len(spec.nodes) == length + 1
    assert len(ids) == len(set(ids))
