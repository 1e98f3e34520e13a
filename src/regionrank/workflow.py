"""Workflow DAG model: parse, render, validate, and generate specifications.

A workflow is a set of HTTP service nodes and directed dataflow hops between
them. Two on-disk formats are supported:

* ``lines``: one URL per non-comment line; the first URL is the data source
  and the remaining lines form a sequential processing chain.
* ``dag``: a JSON object describing arbitrary multi-source DAGs (see
  parse_workflow for the schema).
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field
from urllib.parse import urlsplit

from .errors import RegionRankError, decode_json

ROLE_SOURCE = "source"
ROLE_PROCESSOR = "processor"

_DEFAULT_PORTS = {"http": 80, "https": 443}


class WorkflowError(RegionRankError):
    """A workflow file or specification is invalid."""


def endpoint_host(url: str, where: str = "endpoint") -> str:
    """Validate an absolute http(s) URL and return its canonical host key.

    The key is the lowercase hostname, with ':port' only when the port is not
    the scheme's default. IPv6 literals keep their brackets ([::1],
    [::1]:8080), so the port stays separable. Metrics are gathered per host,
    so two URLs on the same host:port share one key regardless of path.
    `where` names the URL's place in the input for the error message.
    """
    try:
        parts = urlsplit(url)
        host = parts.hostname
        port = parts.port
    except ValueError as exc:
        raise WorkflowError(f"malformed URL at {where}: {url!r} ({exc})") from exc
    if parts.scheme not in _DEFAULT_PORTS or not host:
        raise WorkflowError(
            f"malformed URL at {where}: {url!r} (expected an absolute http(s) URL with a host)"
        )
    if ":" in host:
        host = f"[{host}]"
    if port is None or port == _DEFAULT_PORTS[parts.scheme]:
        return host
    return f"{host}:{port}"


@dataclass(frozen=True)
class ServiceNode:
    """One HTTP service taking part in a workflow."""

    id: str
    endpoint: str
    role: str  # ROLE_SOURCE or ROLE_PROCESSOR

    def __post_init__(self):
        if not self.id:
            raise WorkflowError("node id must be non-empty")
        if self.role not in (ROLE_SOURCE, ROLE_PROCESSOR):
            raise WorkflowError(f"unknown node role {self.role!r}")
        object.__setattr__(self, "_host", endpoint_host(self.endpoint, f"node {self.id!r}"))

    @property
    def host(self) -> str:
        """Canonical host key of the endpoint, computed once when the node is made."""
        return self._host


@dataclass(frozen=True)
class WorkflowSpec:
    """A validated DAG workflow.

    Hops are directed (from-id, to-id) dataflow transfers. The final delivery
    of each terminal node's output back to the orchestrator is implicit: it
    is never a hop, only a candidate edge in edge_peers.

    Validation also sets these values, which depend only on the workflow:

    * hop_order, the order a run sends the hops in: by the longest hop path
      to each hop's from-node, then in file order.
    * edge_peers, the host at the far end of each candidate edge, in edge
      order (see candidate.candidate_peers).
    * distinct_peers, the distinct edge_peers, in the order of their first
      edge.
    * invocations, how many hops deliver to a processor.
    """

    name: str
    nodes: tuple[ServiceNode, ...]
    hops: tuple[tuple[str, str], ...]
    hop_order: tuple[tuple[str, str], ...] = field(init=False, repr=False, compare=False)
    edge_peers: tuple[str, ...] = field(init=False, repr=False, compare=False)
    distinct_peers: tuple[str, ...] = field(init=False, repr=False, compare=False)
    invocations: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "hops", tuple((str(a), str(b)) for a, b in self.hops))
        self._validate()

    def _validate(self):
        successors: dict[str, list[str]] = {}
        for node in self.nodes:
            if node.id in successors:
                raise WorkflowError(f"duplicate node id {node.id!r}")
            successors[node.id] = []
        indegree = dict.fromkeys(successors, 0)
        for u, v in self.hops:
            for node_id in (u, v):
                if node_id not in successors:
                    raise WorkflowError(f"unknown id {node_id!r} in hop list")
            successors[u].append(v)
            indegree[v] += 1
        reached = {n.id for n in self.nodes if n.role == ROLE_SOURCE}
        if not reached:
            raise WorkflowError("workflow needs at least one source node")
        # Kahn's algorithm: a node is popped only after every node that feeds
        # it, so its reachability and longest hop path are final by then
        depth = dict.fromkeys(successors, 0)
        ready = [node_id for node_id, degree in indegree.items() if degree == 0]
        popped = 0
        while ready:
            u = ready.pop()
            popped += 1
            for v in successors[u]:
                if u in reached:
                    reached.add(v)
                depth[v] = max(depth[v], depth[u] + 1)
                indegree[v] -= 1
                if indegree[v] == 0:
                    ready.append(v)
        if popped != len(self.nodes):
            raise WorkflowError("cycle detected in workflow hops")
        for node in self.nodes:
            if node.role == ROLE_PROCESSOR and node.id not in reached:
                raise WorkflowError(f"processor {node.id!r} is unreachable from any source")
        object.__setattr__(self, "hop_order", tuple(sorted(self.hops, key=lambda hop: depth[hop[0]])))
        self._derive(successors)

    def _derive(self, successors: dict[str, list[str]]):
        """Set the candidate-edge values from the validated nodes and hops.

        Each hop (u, v) is two edges, ending at host(u) then host(v); each
        node without successors, in node order, adds its return edge.
        """
        nodes = {node.id: node for node in self.nodes}
        hosts = {node_id: node.host for node_id, node in nodes.items()}
        peers = [hosts[end] for hop in self.hops for end in hop]
        peers += [hosts[node_id] for node_id, after in successors.items() if not after]
        object.__setattr__(self, "edge_peers", tuple(peers))
        object.__setattr__(self, "distinct_peers", tuple(dict.fromkeys(peers)))
        object.__setattr__(
            self, "invocations", sum(1 for _, v in self.hops if nodes[v].role == ROLE_PROCESSOR)
        )

    @property
    def sources(self) -> tuple[ServiceNode, ...]:
        return tuple(n for n in self.nodes if n.role == ROLE_SOURCE)


def _chain_spec(name: str, urls: list[tuple[str, str]]) -> WorkflowSpec:
    """A sequential chain over (url, host key) pairs, the first being the source.

    Node ids are the host keys the caller's validation returned, with '#k'
    appended to the k-th repeat of a host.
    """
    seen: Counter[str] = Counter()
    nodes = []
    for i, (url, host) in enumerate(urls):
        seen[host] += 1
        node_id = host if seen[host] == 1 else f"{host}#{seen[host]}"
        nodes.append(ServiceNode(node_id, url, ROLE_PROCESSOR if i else ROLE_SOURCE))
    hops = tuple((a.id, b.id) for a, b in zip(nodes, nodes[1:]))
    return WorkflowSpec(name=name, nodes=tuple(nodes), hops=hops)


def _parse_lines(text: str) -> WorkflowSpec:
    name = "workflow"
    urls: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.lower().startswith("name:"):
                name = body[5:].strip() or name
            continue
        urls.append((line, endpoint_host(line, f"line {lineno}")))
    if not urls:
        raise WorkflowError("empty workflow file: no node URLs found")
    return _chain_spec(name, urls)


def _parse_dag(text: str) -> WorkflowSpec:
    doc = decode_json(text, "dag file", WorkflowError, dict)
    name = doc.get("name", "workflow")
    sources = doc.get("sources", [])
    raw_nodes = doc.get("nodes", [])
    raw_hops = doc.get("hops", [])
    if not isinstance(sources, list) or not isinstance(raw_nodes, list) or not isinstance(raw_hops, list):
        raise WorkflowError("malformed dag file: sources, nodes and hops must be arrays")

    # not through str(), which would read null and ["x"] as 'None' and "['x']"
    if not isinstance(name, str):
        raise WorkflowError(f"malformed dag file: name {name!r} is not a string")
    for url in sources:
        if not isinstance(url, str):
            raise WorkflowError(f"malformed dag file: sources entry {url!r} is not a string")
        endpoint_host(url, "sources")
    source_urls = set(sources)
    declared_urls = set()
    nodes = []
    for entry in raw_nodes:
        try:
            node_id, url = entry["id"], entry["url"]
        except (TypeError, KeyError) as exc:
            raise WorkflowError(f"malformed dag node entry {entry!r}") from exc
        if not isinstance(node_id, str) or not isinstance(url, str):
            raise WorkflowError(f"malformed dag node entry {entry!r}: id and url must be strings")
        declared_urls.add(url)
        role = ROLE_SOURCE if url in source_urls else ROLE_PROCESSOR
        nodes.append(ServiceNode(node_id, url, role))
    for url in sources:
        if url not in declared_urls:
            raise WorkflowError(f"source URL {url!r} is not declared in nodes")

    hops = []
    for entry in raw_hops:
        if not isinstance(entry, list) or len(entry) != 2 or not all(isinstance(end, str) for end in entry):
            raise WorkflowError(f"malformed hop entry {entry!r}: expected [from_id, to_id] strings")
        hops.append(tuple(entry))
    return WorkflowSpec(name=name, nodes=tuple(nodes), hops=tuple(hops))


def parse_workflow(text: str, format: str = "lines") -> WorkflowSpec:
    """Parse workflow file content.

    ``lines`` format: UTF-8 text, '#'-prefixed comment lines ignored (a
    '# name: X' comment carries the workflow name), one URL per line, first
    URL is the source. Duplicate hosts get distinct '#k'-suffixed node ids.

    ``dag`` format: JSON object {"name": str, "sources": [url...],
    "nodes": [{"id": str, "url": str}...], "hops": [[from_id, to_id]...]}.
    "nodes" declares every node; a node whose url appears in "sources" is a
    data source.
    """
    if not text.strip():
        raise WorkflowError("empty workflow file")
    if format == "lines":
        return _parse_lines(text)
    if format == "dag":
        return _parse_dag(text)
    raise WorkflowError(f"unknown workflow format {format!r}")


def render_workflow(spec: WorkflowSpec, format: str = "lines") -> str:
    """Render a spec back to file content; parse(render(spec)) == spec.

    The lines format can only express sequential chains and regenerates node
    ids from hosts on re-parse, so it is reserved for chain-shaped specs.
    """
    if format == "lines":
        ids = [n.id for n in spec.nodes]
        expected_hops = tuple(zip(ids, ids[1:]))
        if spec.hops != expected_hops or len(spec.sources) != 1 or spec.nodes[0].role != ROLE_SOURCE:
            raise WorkflowError("lines format requires a single-source sequential chain")
        lines = [f"# name: {spec.name}"] + [n.endpoint for n in spec.nodes]
        return "\n".join(lines) + "\n"
    if format == "dag":
        doc = {
            "name": spec.name,
            "sources": [n.endpoint for n in spec.nodes if n.role == ROLE_SOURCE],
            "nodes": [{"id": n.id, "url": n.endpoint} for n in spec.nodes],
            "hops": [list(hop) for hop in spec.hops],
        }
        return json.dumps(doc, indent=2) + "\n"
    raise WorkflowError(f"unknown workflow format {format!r}")


def distinct_nodes(spec: WorkflowSpec) -> list[ServiceNode]:
    """Distinct workflow nodes by endpoint host, ordered by first appearance.

    Probing the same host twice would waste measurement budget, so metric
    gathering keys off this list.
    """
    seen: set[str] = set()
    out = []
    for node in spec.nodes:
        if node.host not in seen:
            seen.add(node.host)
            out.append(node)
    return out


def generate_random_workflow(
    pool: list[str], length: int, seed: int, source: str
) -> WorkflowSpec:
    """Build a sequential chain of `length` processors sampled from `pool`.

    Sampling is uniform with replacement from a generator seeded with `seed`,
    so identical (pool, length, seed, source) inputs give identical specs.
    """
    if not pool:
        raise WorkflowError("empty endpoint pool")
    if length < 1:
        raise WorkflowError("length must be at least 1")
    chain = [(source, endpoint_host(source, "source"))]
    keyed_pool = [(url, endpoint_host(url, f"pool entry {i}")) for i, url in enumerate(pool)]
    rng = random.Random(seed)
    chain += [rng.choice(keyed_pool) for _ in range(length)]
    return _chain_spec(f"random-len{length}-seed{seed}", chain)
