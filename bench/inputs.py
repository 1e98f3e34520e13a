"""Seeded input generator for the benchmark workloads (standard library only).

Every function here is pure: the same arguments give byte-identical file
contents. The files are the only thing the program under test receives.

* sweep-wide: a "lines" chain over many regions with consistent metrics
  (probe hosts sit at their region's coordinates, latency is proportional to
  distance, rtt = 2 * latency + overhead, no noise), so the heuristic's
  recommendation must equal the brute-force oracle's.
* loopback: a chain over live loopback services. Their ports are chosen by
  the OS, so the files are identical for the same seed and the same ports.
"""

from __future__ import annotations

import json
import random

SWEEP_WIDE = {"regions": 256, "hosts": 100, "hops": 1000, "noise_sigma_ms": 0.0}
LOOPBACK = {"services": 8, "hops": 16, "payload_bytes": 256 * 1024, "samples": 4,
            "top_n": 3, "parallelism": 2}


def _point(rng: random.Random) -> dict:
    return {"lat": round(rng.uniform(-60.0, 60.0), 6), "lon": round(rng.uniform(-180.0, 179.0), 6)}


def _dump(doc) -> str:
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def _regions(rng: random.Random, count: int) -> list[dict]:
    regions = []
    for j in range(count):
        point = _point(rng)
        regions.append({"id": f"region-{j:03d}", "probe_host": f"probe-{j:03d}.test", **point})
    return regions


def _env(rng: random.Random, seed: int, locations: dict, regions: list[dict],
         noise_sigma_ms: float) -> dict:
    locations = dict(locations)
    for region in regions:
        locations[region["probe_host"]] = {"lat": region["lat"], "lon": region["lon"]}
    return {
        "node_locations": locations,
        "base_latency_per_km": round(rng.uniform(0.005, 0.05), 6),
        "bandwidth_mbps": round(rng.uniform(20.0, 200.0), 3),
        "service_overhead_ms": round(rng.uniform(0.0, 10.0), 3),
        "processing_s": round(rng.uniform(0.0, 2.0), 3),
        "noise_sigma_ms": noise_sigma_ms,
        "seed": seed,
    }


def sweep_wide(seed: int) -> dict[str, str]:
    """Files for sweep-wide: workflow (lines), catalog.json, env.json."""
    p = SWEEP_WIDE
    rng = random.Random(f"sweep-wide/{seed}")
    hosts = [f"node{i:03d}.test" for i in range(p["hosts"])]
    locations = {host: _point(rng) for host in hosts}
    regions = _regions(rng, p["regions"])
    chain = [f"http://{hosts[0]}/data.bin"]
    chain += [f"http://{rng.choice(hosts[1:])}/" for _ in range(p["hops"])]
    workflow = f"# name: sweep-wide-{seed}\n" + "\n".join(chain) + "\n"
    env = _env(rng, seed, locations, regions, p["noise_sigma_ms"])
    return {"workflow": workflow, "catalog.json": _dump(regions), "env.json": _dump(env)}


def loopback_payload(seed: int) -> bytes:
    """The bytes the loopback payload source serves."""
    return random.Random(f"loopback/payload/{seed}").randbytes(LOOPBACK["payload_bytes"])


def loopback(seed: int, source_port: int, service_ports: list[int],
             catalog_text: str) -> dict[str, str]:
    """Files for loopback: workflow (lines), geo.json, and env.json for simulate.

    The chain visits the services round-robin, LOOPBACK["hops"] hops in all;
    geo.json places every host key at a seeded point, and env.json puts the
    same hosts and the catalog's probe hosts on the map.
    """
    p = LOOPBACK
    rng = random.Random(f"loopback/{seed}")
    source = f"127.0.0.1:{source_port}"
    services = [f"127.0.0.1:{port}" for port in service_ports]
    chain = [f"http://{source}/"]
    chain += [f"http://{services[i % len(services)]}/" for i in range(p["hops"])]
    workflow = f"# name: loopback-{seed}\n" + "\n".join(chain) + "\n"
    geo = {host: _point(rng) for host in [source] + services}
    env = _env(rng, seed, geo, json.loads(catalog_text), 0.0)
    return {"workflow": workflow, "geo.json": _dump(geo), "env.json": _dump(env)}
