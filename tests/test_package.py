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


# urlopen, and the http.client classes that open an HTTP connection
HTTP_OPENERS = {"urlopen", "HTTPConnection", "HTTPSConnection"}


def _http_openers(path):
    """(function, name) of every call in one source file to a name in HTTP_OPENERS,
    whether by module path or by imported name; function is the innermost def around it."""
    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in HTTP_OPENERS:
                yield function, name
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function)

    yield from visit(ast.parse(path.read_text(), str(path)), None)


def test_the_package_makes_its_http_requests_at_one_site():
    # errors.http_body is the one exception boundary for every HTTP client
    sites = sorted((path.name, function, name) for path in SOURCES for function, name in _http_openers(path))
    assert sites == [("errors.py", "http_body", "HTTPConnection"), ("errors.py", "http_body", "HTTPSConnection")]


def test_every_public_name_resolves_on_the_package():
    assert [name for name in regionrank.__all__ if not hasattr(regionrank, name)] == []
    assert len(set(regionrank.__all__)) == len(regionrank.__all__)
