"""Golden outputs: `simulate` and `rank --mode sim` on seeded 64-region worlds.

The expected stdout under tests/golden/ pins every printed digit, and the
JSON reports print full float reprs, so a change in how a distance, a base
latency, a noise draw or a score is computed shows up as a diff. `rank` runs
at the default --top-n 3, which probes only the prefilter's survivors, and
at --top-n 8. To look at a world, `write_world` writes its files into any
directory.
"""

import json
import random
from pathlib import Path

import pytest

from regionrank.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"
REGIONS, HOSTS, HOPS, OVERRIDES = 64, 24, 150, 12


def _point(rng):
    return {"lat": round(rng.uniform(-80.0, 80.0), 6), "lon": round(rng.uniform(-180.0, 180.0), 6)}


def write_world(directory: Path, seed: int, noise_sigma_ms: float) -> dict[str, str]:
    """Write a seeded world's workflow, catalog and environment; their paths by CLI flag.

    A lines chain over HOSTS hosts, REGIONS regions whose probe hosts sit at
    their coordinates, and OVERRIDES pinned (probe host, node) pairs, so both
    the distance-based and the pinned latencies reach the output.
    """
    rng = random.Random(f"golden/{seed}")
    hosts = [f"node{i:02d}.test" for i in range(HOSTS)]
    locations = {host: _point(rng) for host in hosts}
    regions = []
    for j in range(REGIONS):
        point = _point(rng)
        regions.append({"id": f"region-{j:02d}", "probe_host": f"probe-{j:02d}.test", **point})
        locations[f"probe-{j:02d}.test"] = point
    chain = [f"http://{hosts[0]}/data.bin"] + [f"http://{rng.choice(hosts[1:])}/" for _ in range(HOPS)]
    overrides = {
        f"{rng.choice(regions)['probe_host']}|{rng.choice(hosts)}": round(rng.uniform(0.0, 40.0), 3)
        for _ in range(OVERRIDES)
    }
    env = {
        "node_locations": locations,
        "latency_overrides": overrides,
        "base_latency_per_km": round(rng.uniform(0.005, 0.05), 6),
        "bandwidth_mbps": round(rng.uniform(20.0, 200.0), 3),
        "service_overhead_ms": round(rng.uniform(0.0, 10.0), 3),
        "processing_s": round(rng.uniform(0.0, 2.0), 3),
        "noise_sigma_ms": noise_sigma_ms,
        "seed": seed,
    }
    files = {
        "--workflow": ("world.workflow", f"# name: golden-{seed}\n" + "\n".join(chain) + "\n"),
        "--catalog": ("catalog.json", json.dumps(regions, indent=1)),
        "--env": ("env.json", json.dumps(env, indent=1, sort_keys=True)),
    }
    paths = {}
    for flag, (name, text) in files.items():
        (directory / name).write_text(text)
        paths[flag] = str(directory / name)
    return paths


# world: (seed, noise sigma in ms)
WORLDS = {"still": (3, 0.0), "noisy": (4, 5.0)}
RANK_TOP8 = ["rank", "--mode", "sim", "--format", "json", "--top-n", "8"]
# (world, name): argv before the world's files; the golden file is world-name.txt
CASES = {
    ("still", "simulate"): ["simulate"],
    ("still", "rank"): ["rank", "--mode", "sim"],
    ("still", "rank-top8"): RANK_TOP8,
    ("noisy", "simulate"): ["simulate"],
    ("noisy", "rank"): ["rank", "--mode", "sim"],
    # one latency sample, and the default 4, whose mean every Python must
    # add up in the same order to print the same digits
    ("noisy", "rank-top8"): RANK_TOP8 + ["--samples", "1"],
    ("noisy", "rank-top8-samples4"): RANK_TOP8,
}


@pytest.mark.parametrize("world, name", sorted(CASES), ids=[f"{world}-{name}" for world, name in sorted(CASES)])
def test_stdout_matches_the_golden_file(world, name, tmp_path, capsys):
    seed, sigma = WORLDS[world]
    argv = list(CASES[world, name])
    for flag, path in write_world(tmp_path, seed, sigma).items():
        argv += [flag, path]
    assert main(argv) == EXIT_OK
    out, err = capsys.readouterr()
    assert err == ""
    assert out == (GOLDEN / f"{world}-{name}.txt").read_text()
