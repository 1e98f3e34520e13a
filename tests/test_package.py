"""Package-wide checks: a standard-library-only runtime and a public API that resolves."""

import ast
import sys
from pathlib import Path

import regionrank

SOURCES = sorted(Path(regionrank.__file__).parent.glob("*.py"))


def _absolute_imports(path):
    """Top-level module name of every absolute import in one source file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_runtime_imports_only_the_standard_library():
    assert "metrics.py" in {path.name for path in SOURCES}
    outside = sorted(
        (path.name, name)
        for path in SOURCES
        for name in _absolute_imports(path)
        if name not in sys.stdlib_module_names
    )
    assert outside == []


def _urlopen_calls(path):
    """Line of every urlopen call in one source file, whether by module path or by imported name."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Call):
            func = node.func
            if (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) == "urlopen":
                yield node.lineno


def test_the_package_makes_its_http_requests_at_one_site():
    # errors.http_body is the one exception boundary for every HTTP client
    sites = [path.name for path in SOURCES for _ in _urlopen_calls(path)]
    assert sites == ["errors.py"]


def test_every_public_name_resolves_on_the_package():
    assert [name for name in regionrank.__all__ if not hasattr(regionrank, name)] == []
    assert len(set(regionrank.__all__)) == len(regionrank.__all__)
