"""Property: one hostile value in any input file never makes the CLI raise.

Each example starts from the bundled inputs, replaces one value of one input
(any JSON value of a catalog, environment, geolocation fixture or dag
workflow, or one line of a lines workflow or a gen pool) with an atom, and
runs a subcommand over them. cli.main must return 0, 2 or 3 without raising,
and a run that exits 0 must print only finite numbers.

serve reads no input file, and verify --mode live over the bundled workflow
would contact its hosts, so neither is fuzzed here. Live rank runs only over
loopback endpoints; its mutations never reach the workflow.
"""

import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

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
