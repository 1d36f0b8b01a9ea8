"""Static checks on the package source that need no linter."""

import ast
import io
from pathlib import Path
import tokenize

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "nvcdd"
MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_guard_sees_an_unused_import():
    source = ("import math\nimport numpy as np\nfrom os import path, sep\n"
              "x = np.pi + math.e\nprint(sep)\n")
    assert unused_imports(source) == ["line 3: path"]


def definitions(source: str) -> dict[str, ast.stmt]:
    """Module-level functions, classes and constants, by name."""
    defined = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            defined[name] = node
    return defined


def private_definitions(source: str) -> dict[str, int]:
    """Module-level private functions, classes and constants (``_name``,
    not dunders), with their line numbers."""
    return {name: node.lineno for name, node in definitions(source).items()
            if name.startswith("_") and not name.startswith("__")}


def is_command(node: ast.stmt) -> bool:
    """Whether a ``@<group>.command()`` decorator registers the function
    as a CLI command, which click calls and no module reads."""
    for decorator in getattr(node, "decorator_list", ()):
        if isinstance(decorator, ast.Call):
            decorator = decorator.func
        if isinstance(decorator, ast.Attribute) and decorator.attr == "command":
            return True
    return False


def public_definitions(source: str) -> dict[str, int]:
    """Module-level public functions, classes and constants, CLI commands
    excepted, with their line numbers."""
    return {name: node.lineno for name, node in definitions(source).items()
            if not name.startswith("_") and not is_command(node)}


def names_read(source: str) -> set[str]:
    """Every name a module reads: bare names, attributes and imports."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def unread_names(sources: dict[str, str], defined) -> list[str]:
    """The module-level names defined (private_definitions or
    public_definitions) finds that no module of the package reads, so
    that only tests (or nothing) use them."""
    read = set().union(*map(names_read, sources.values()))
    return [f"{module}:{line}: {name}"
            for module, source in sources.items()
            for name, line in defined(source).items()
            if name not in read]


PACKAGE = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}


def test_no_private_name_only_tests_use():
    assert unread_names(PACKAGE, private_definitions) == []


def test_guard_sees_an_unread_private_name():
    sources = {
        "a": ("import math\n_TABLE = 1\n_UNUSED = 2\n__all__ = []\n"
              "def _helper():\n    return _TABLE\n"
              "def _dead():\n    return math.pi\n"
              "class _Gone:\n    pass\n"),
        "b": "from . import a\nfrom .c import _shared\nprint(a._helper())\n",
        "c": "def _shared():\n    pass\n",
    }
    assert unread_names(sources, private_definitions) == [
        "a:3: _UNUSED", "a:7: _dead", "a:9: _Gone"]


def test_no_public_name_only_tests_use():
    assert unread_names(PACKAGE, public_definitions) == []


def test_guard_sees_an_unread_public_name():
    sources = {
        "__init__": "__version__ = '1'\n",
        "a": ("import click\nLIMIT = 3\nUNREAD = 4\n"
              "@click.group()\ndef main():\n    pass\n"
              "@main.command()\ndef run():\n    return LIMIT\n"
              "def used():\n    pass\n"
              "class Gone:\n    pass\n"),
        "b": "from .a import used\nused()\n",
    }
    assert unread_names(sources, public_definitions) == [
        "a:3: UNREAD", "a:12: Gone"]


# src/'s code lines by code_lines.  A change that gives lines back lowers
# it to the new count: test_guard_fails_one_line_over_the_ratchet fails
# until it does.
MAX_CODE_LINES = 1478

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The lines of a module that hold a token other than a comment
    (tokenize), outside the module, class and function docstrings (ast):
    blank lines, comment lines and docstrings do not count."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines -= set(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


def lines_over(sources: dict[str, str], limit: int) -> int:
    """How many code lines the modules hold above limit; 0 or less
    passes."""
    return sum(map(code_lines, sources.values())) - limit


def test_src_code_lines_stay_within_the_ratchet():
    assert lines_over(PACKAGE, MAX_CODE_LINES) <= 0


def test_guard_counts_only_code_lines():
    source = '''"""Module docstring."""

import math  # a comment
# a comment line


class A:
    """Class docstring,
    two lines."""

    def f(self, x):
        """Function docstring."""
        return (x +
                math.pi)


TEXT = """a string,
not a docstring"""
'''
    # import, class, def, return (two lines) and TEXT (two lines)
    assert code_lines(source) == 7
    assert lines_over({"a": source}, 7) == 0
    assert lines_over({"a": source + "LIMIT = 1\n"}, 7) == 1


def test_guard_fails_one_line_over_the_ratchet():
    grown = {**PACKAGE, "grown": "LIMIT = 1\n"}
    assert lines_over(grown, MAX_CODE_LINES) == 1
