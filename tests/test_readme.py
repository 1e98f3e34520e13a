"""The README's "Library use" recipe runs and recommends what `regionrank rank` does."""

import re
from pathlib import Path

from regionrank.bundled import fixture_path, fixture_text
from regionrank.cli import EXIT_OK, main

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_use_blocks():
    """The Python code blocks of the README's "Library use" section, in order."""
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, re.DOTALL | re.MULTILINE)


def test_library_use_recipe_recommends_what_rank_does(tmp_path, monkeypatch, capsys):
    assert main([
        "rank", "--mode", "sim",
        "--workflow", str(fixture_path("worked_example.workflow")),
        "--catalog", str(fixture_path("regions.json")),
        "--env", str(fixture_path("worked_example_env.json")),
    ]) == EXIT_OK
    recommended = capsys.readouterr().out.splitlines()[-1].removeprefix("RECOMMENDED: ")

    (tmp_path / "flow.workflow").write_text(fixture_text("worked_example.workflow"))
    (tmp_path / "world.json").write_text(fixture_text("worked_example_env.json"))
    monkeypatch.chdir(tmp_path)
    blocks = _library_use_blocks()
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    # the every-region block and the survivors-only block, one line each
    assert capsys.readouterr().out.splitlines() == [recommended, recommended]
