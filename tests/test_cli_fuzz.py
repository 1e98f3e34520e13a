"""Property: one hostile value in any input file never makes the CLI raise.

Each example starts from the bundled inputs, replaces one value of one input
(any JSON value of a catalog, environment, geolocation fixture or dag
workflow, or one line of a lines workflow or a gen pool) with an atom, and
runs a subcommand over them. cli.main must return 0, 2 or 3 without raising,
and a run that exits 0 must print only finite numbers.

serve reads no input file, and verify --mode live over the bundled workflow
would contact its hosts, so neither is fuzzed here. Live rank runs only over
loopback endpoints; its mutations never reach the workflow.

A second property changes one host key of one input (its case, a default
port, the brackets of an IPv6 literal): the run's output stays the same, or
it exits 2 with one error line naming the changed key.
"""

import contextlib
import functools
import io
import json
import math
import re
import tempfile
from pathlib import Path
from urllib.parse import urlsplit

import pytest
from hypothesis import given, settings, strategies as st

from regionrank.bundled import fixture_text
from regionrank.cli import EXIT_INPUT_ERROR, EXIT_OK, EXIT_PROBE_FAILURE, main
from regionrank.harness import payload_source, transform_service
from regionrank.workflow import endpoint_host, parse_workflow, render_workflow

ATOMS = (
    None, True, False, 0, -1, 0.5, 1e308, -1e308, 2**70, -(2**70), math.nan, math.inf, -math.inf,
    "", " ", "x", "http://[::1", "a|", "http://", "ftp://h.test/", "http://h.test:99999/",
    [], {}, [0, 0], {"": None},
)
NOT_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)
WORKED_LINES = fixture_text("worked_example.workflow")
BUNDLED = {
    "lines": WORKED_LINES,
    "dag": render_workflow(parse_workflow(WORKED_LINES, format="lines"), format="dag"),
    "catalog": fixture_text("regions.json"),
    "env": fixture_text("worked_example_env.json"),
    "pool": "# candidate endpoints\nhttp://a.test/\nhttp://b.test:8080/x\n",
}
VANTAGES = ["--vantage-a", "ec2.us-east-1.amazonaws.com", "--vantage-b", "ec2.eu-west-1.amazonaws.com"]
# subcommand -> (argv, the inputs a mutation may hit); {workflow} is the lines
# or the dag workflow, {live} a loopback workflow that is never mutated
COMMANDS = {
    "rank-sim": ("rank --mode sim --workflow {workflow} --catalog {catalog} --env {env}",
                 ("workflow", "catalog", "env")),
    "rank-sim-json": ("rank --mode sim --format json --top-n 8 --workflow {workflow} --catalog {catalog} --env {env}",
                      ("workflow", "catalog", "env")),
    "rank-live": ("rank --mode live --top-n 2 --samples 1 --workflow {live} --catalog {catalog} --geo {geo}",
                  ("catalog", "geo")),
    "simulate": ("simulate --workflow {workflow} --catalog {catalog} --env {env}", ("workflow", "catalog", "env")),
    "verify-sim": ("verify --mode sim --runs 3 --workflow {workflow} --env {env} " + " ".join(VANTAGES),
                   ("workflow", "env")),
    "gen": ("gen --length 3 --seed 1 --source http://s.test/ --pool {pool}", ("pool",)),
}


@pytest.fixture(scope="module")
def inputs():
    """The bundled inputs, plus a loopback workflow and a geo fixture that locates its hosts."""
    with payload_source() as src, transform_service() as svc:
        urls = [src.url, svc.url]
        geo = json.loads(fixture_text("geolocations.json"))
        geo.update({endpoint_host(url): {"lat": 40.0, "lon": -75.0} for url in urls})
        yield dict(BUNDLED, live="".join(f"{url}\n" for url in urls), geo=json.dumps(geo))


def _with_atom(draw, value, atom):
    """`value` with `atom` in place of itself or of one value nested in it.

    The choice is made one level at a time, each key of a container as
    likely as stopping there, so a long list of like entries (the regions,
    the located hosts) draws no more attention than one scalar field.
    """
    keys = list(value) if isinstance(value, dict) else list(range(len(value))) if isinstance(value, list) else []
    key = draw(st.sampled_from([None, *keys]))
    if key is None:
        return atom
    value[key] = _with_atom(draw, value[key], atom)
    return value


@st.composite
def mutated(draw, text):
    """`text` with one value replaced by an atom: a JSON value, or one line of a line file."""
    atom = draw(st.sampled_from(ATOMS))
    try:
        doc = json.loads(text)
    except ValueError:
        lines = text.splitlines()
        index = draw(st.integers(0, len(lines) - 1))
        lines[index] = atom if isinstance(atom, str) else json.dumps(atom)
        return "\n".join(lines) + "\n"
    return json.dumps(_with_atom(draw, doc, atom))


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_one_hostile_value_never_makes_the_cli_raise(inputs, command, data):
    argv, targets = COMMANDS[command]
    texts = dict(inputs, workflow=inputs[data.draw(st.sampled_from(["lines", "dag"]), label="workflow")])
    target = data.draw(st.sampled_from(targets), label="mutated input")
    texts[target] = data.draw(mutated(texts[target]), label=target)
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in texts.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([arg.format_map({name: str(Path(tmp, name)) for name in texts})
                         for arg in argv.split()])
    assert code in (EXIT_OK, EXIT_INPUT_ERROR, EXIT_PROBE_FAILURE), err.getvalue()
    if code == EXIT_OK:
        assert NOT_FINITE.search(out.getvalue()) is None, out.getvalue()


# --- host keys ---

# names, a name with a port, IPv6 literals with and without a port: every
# form a host key takes, as workflow hosts, located hosts, a probe host,
# override ends and a vantage
IPV6_PROBE, IPV6, IPV6_PORT, NAME_PORT = "[2001:db8::1]", "[2001:db8::7]", "[2001:db8::8]:8080", "p.test:8080"
KEYED_COMMANDS = {
    "rank-sim": ("rank --mode sim --format json --top-n 8 --workflow {workflow} --catalog {catalog} --env {env}",
                 ("workflow", "catalog", "locations", "overrides")),
    "simulate": ("simulate --workflow {workflow} --catalog {catalog} --env {env}",
                 ("workflow", "catalog", "locations", "overrides")),
    "verify-sim": ("verify --mode sim --runs 3 --workflow {workflow} --env {env} --vantage-a {a} --vantage-b {b}",
                   ("workflow", "locations", "overrides", "vantage")),
}


def _keyed_world() -> dict:
    """The bundled worked example, with keys of every form added."""
    catalog = json.loads(BUNDLED["catalog"])
    catalog[1]["probe_host"] = IPV6_PROBE
    env = json.loads(BUNDLED["env"])
    for i, key in enumerate([IPV6_PROBE, IPV6, IPV6_PORT, NAME_PORT]):
        env["node_locations"][key] = {"lat": 10.0 * i, "lon": -20.0 * i}
    env["latency_overrides"] = {f"ec2.us-east-1.amazonaws.com|{IPV6}": 5.0, f"{NAME_PORT}|wikimedia.org": 7.0}
    workflow = WORKED_LINES + "".join(f"http://{key}/\n" for key in (IPV6, IPV6_PORT, NAME_PORT))
    return {"workflow": workflow, "catalog": catalog, "env": env, "vantages": [IPV6_PROBE, VANTAGES[3]]}


def _changed(key: str, how: str) -> str:
    if how == "case":
        return key.swapcase()
    if how == "port":  # the http default port, to a key that has none
        return key if ":" in key.rpartition("]")[2] else f"{key}:80"
    return key.replace("[", "").replace("]", "")


@st.composite
def one_key_changed(draw, targets):
    """(world, the changed key or workflow line): one key of one input changed in case, port or brackets."""
    world = _keyed_world()
    target = draw(st.sampled_from(targets), label="input")
    how = draw(st.sampled_from(["case", "port", "brackets"]), label="change")
    if target == "workflow":
        lines = world["workflow"].splitlines()
        index = draw(st.sampled_from([i for i, line in enumerate(lines) if not line.startswith("#")]))
        netloc = urlsplit(lines[index]).netloc
        lines[index] = named = lines[index].replace(f"//{netloc}", f"//{_changed(netloc, how)}", 1)
        world["workflow"] = "\n".join(lines) + "\n"
    elif target == "catalog":
        region = draw(st.sampled_from(world["catalog"]))
        region["probe_host"] = named = _changed(region["probe_host"], how)
    elif target == "locations":
        locations = world["env"]["node_locations"]
        key = draw(st.sampled_from(sorted(locations)))
        named = _changed(key, how)
        world["env"]["node_locations"] = {named if k == key else k: v for k, v in locations.items()}
    elif target == "overrides":
        overrides = world["env"]["latency_overrides"]
        key = draw(st.sampled_from(sorted(overrides)))
        ends = key.split("|")
        side = draw(st.integers(0, 1))
        ends[side] = named = _changed(ends[side], how)
        world["env"]["latency_overrides"] = {"|".join(ends) if k == key else k: v for k, v in overrides.items()}
    else:
        side = draw(st.integers(0, 1))
        world["vantages"][side] = named = _changed(world["vantages"][side], how)
    return world, named


def _run_keyed(command: str, world: dict) -> tuple[int, str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: str(Path(tmp, name)) for name in ("workflow", "catalog", "env")}
        Path(paths["workflow"]).write_text(world["workflow"], encoding="utf-8")
        Path(paths["catalog"]).write_text(json.dumps(world["catalog"]), encoding="utf-8")
        Path(paths["env"]).write_text(json.dumps(world["env"]), encoding="utf-8")
        a, b = world["vantages"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(KEYED_COMMANDS[command][0].format(a=a, b=b, **paths).split())
    return code, out.getvalue(), err.getvalue()


@functools.lru_cache(maxsize=None)
def _unchanged_run(command: str) -> tuple[int, str, str]:
    return _run_keyed(command, _keyed_world())


@pytest.mark.parametrize("command", sorted(KEYED_COMMANDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_changed_host_key_keeps_the_output_or_is_named_in_one_error(command, data):
    # a key that no workflow host can equal never exits 0 with a failed channel
    baseline = _unchanged_run(command)
    assert baseline[0] == EXIT_OK and baseline[2] == "", baseline
    world, named = data.draw(one_key_changed(KEYED_COMMANDS[command][1]))
    code, out, err = _run_keyed(command, world)
    if (code, out, err) != baseline:
        assert code == EXIT_INPUT_ERROR, (code, err)
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and repr(named) in err, err
