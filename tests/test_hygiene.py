"""Source checks that need no linter on ``src/histrisk``.

No top-level import goes unused, each module imports only the sibling
modules listed before it in ``LAYERS``, so no import cycle can form, and no
function rebinds module state other than the names in ``GLOBALS``, which are none.  Every
module parses as Python 3.10, the oldest version ``pyproject.toml`` supports,
and no ``re.compile`` pattern needs the 3.11 regex syntax or holds ``\\d`` or
``\\w``, which match non-ASCII digits and letters too.  ``ingestion`` reads
files in one place, the loop of ``_read_panel``, so no file is read twice;
parses text in one place, ``_parse``, the only caller of the fast path and the
row loop, so no file is parsed twice; makes returns in that loop and in
``to_returns`` alone, one file at a time; and
keeps date objects made from a date column's text in ``_Dates``' builder alone; a
backtest builds each input's ``Path`` once, in ``cli._cmd_backtest``, and calls
the panel reader only as the argument of ``run_suite``, which never passes its
input to ``list``, ``sorted`` or ``tuple``, so no backtest holds its whole panel.
``backtest`` takes its violation counts from ``_var_counts`` alone, the one
caller of the rank pass, and writes a length skip's text in ``_shortfall``
alone; ``InputError``'s one subclass is ``SingularDesignError``.
Every private name a docstring or comment quotes in double backticks, or names
bare, is defined in the package, so none is left naming code that is gone, and the README's
Performance section quotes the chunk sizes of the reader and the rank pass as
the code sets them.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "histrisk"

# The process-wide state a function may rebind: none.
GLOBALS = set()

# Each module may import only the modules before it; ``__init__`` and ``__main__`` sit above them all.
LAYERS = ("errors", "measures", "axioms", "stats", "ingestion", "backtest", "commands", "cli")


def unused_imports(source: str) -> list[str]:
    """Top-level imported names that no ``Name`` node reads, less ``__future__`` and ``__all__``."""
    tree = ast.parse(source)
    imported: set[str] = set()
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used - exported)


def test_unused_imports_finds_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "import datetime as dt\n"
        "from .x import kept, exported\n"
        "__all__ = ['exported']\n"
        "def f() -> dt.date:\n"
        "    return kept\n"
    )
    assert unused_imports(source) == ["os", "osp"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def sibling_imports(source: str) -> set[str]:
    """Sibling modules imported relatively: ``from .x import y`` names ``x``, ``from . import y`` names ``y``."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names.update([node.module] if node.module else [alias.name for alias in node.names])
    return names


def test_sibling_imports_finds_relative_imports_only():
    source = (
        "import os\n"
        "from . import __version__\n"
        "from .errors import InputError\n"
        "def f():\n"
        "    from .stats import ols2\n"
    )
    assert sibling_imports(source) == {"__version__", "errors", "stats"}


def test_layers_name_every_module():
    assert {path.stem for path in SRC.glob("*.py")} - {"__init__", "__main__"} == set(LAYERS)


@pytest.mark.parametrize("index, module", enumerate(LAYERS), ids=LAYERS)
def test_imports_follow_layers(index, module):
    imported = sibling_imports((SRC / f"{module}.py").read_text(encoding="utf-8"))
    if module == "cli":
        imported.discard("__version__")  # the package version, set in __init__
    assert imported - set(LAYERS[:index]) == set()


def global_names(source: str) -> set[str]:
    """Every name a ``global`` statement in ``source`` declares, at any depth."""
    return {name for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Global) for name in node.names}


def test_global_names_finds_nested_statements():
    source = (
        "def f():\n"
        "    global a, b\n"
        "class C:\n"
        "    def g(self):\n"
        "        global c\n"
    )
    assert global_names(source) == {"a", "b", "c"}


def test_only_listed_globals():
    found = {(path.stem, name) for path in SRC.glob("*.py") for name in global_names(path.read_text(encoding="utf-8"))}
    assert found <= GLOBALS


def test_sources_parse_as_python_3_10():
    with pytest.raises(SyntaxError, match="only supported in Python 3.11"):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
    for path in sorted(SRC.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def compiled_patterns(source: str) -> list[str]:
    """The pattern literals of the ``re.compile`` calls in ``source``."""
    return [
        node.args[0].value
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "compile"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "re"
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and isinstance(node.args[0].value, str)
    ]


def newer_regex_syntax(source: str) -> list[str]:
    """``re.compile`` pattern literals holding a possessive quantifier or an atomic group, which need Python 3.11."""
    found = []
    for pattern in compiled_patterns(source):
        # escapes and character classes hold literal characters, not quantifiers
        bare = re.sub(r"\[\^?\]?[^\]]*\]", "x", re.sub(r"\\.", "x", pattern))
        if re.search(r"[*+?}]\+|\(\?>", bare):
            found.append(pattern)
    return found


def test_newer_regex_syntax_finds_possessive_and_atomic_patterns():
    source = (
        "import re\n"
        "A = re.compile(r'a*+b')\n"
        "B = re.compile(r'x{2}+')\n"
        "C = re.compile(r'(?>ab|a)c')\n"
        "D = re.compile(r'\\d\\++[*+?]+(?:a)?\\(?>')\n"
        "E = re.search(r'a++', 'a')\n"
    )
    assert newer_regex_syntax(source) == ["a*+b", "x{2}+", "(?>ab|a)c"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_newer_regex_syntax(path):
    assert newer_regex_syntax(path.read_text(encoding="utf-8")) == []


def unicode_classes(source: str) -> list[str]:
    """``re.compile`` pattern literals holding ``\\d``, ``\\w`` or their negations: on text they match any Unicode
    digit or word character, so ``\\d`` takes ``２`` and an ASCII-only check must spell ``[0-9]``."""
    return [
        pattern for pattern in compiled_patterns(source)
        if {"\\d", "\\D", "\\w", "\\W"} & set(re.findall(r"\\.", pattern, re.S))
    ]


def test_unicode_classes_finds_digit_and_word_escapes():
    source = (
        "import re\n"
        "A = re.compile(r'^\\d{4}$')\n"
        "B = re.compile(r'[\\w.]+')\n"
        "C = re.compile(r'a\\W')\n"
        "D = re.compile(r'\\\\d[0-9]\\\\w')\n"
        "E = re.compile(r'[0-9]{4}-[a-z_]\\s')\n"
        "F = re.search(r'\\d', '1')\n"
    )
    assert unicode_classes(source) == ["^\\d{4}$", "[\\w.]+", "a\\W"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_unicode_classes(path):
    assert unicode_classes(path.read_text(encoding="utf-8")) == []


def uses(source: str, matches) -> list[str]:
    """Where each node that ``matches`` accepts sits: its enclosing functions and loops, outermost first, joined by
    ``/``.

    Annotations and docstrings are skipped: they hint at types or describe code, and run nothing.
    """
    found = []

    def visit(node: ast.AST, where: tuple[str, ...]) -> None:
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            return
        if matches(node):
            found.append("/".join(where))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where += (node.name,)
        elif isinstance(node, (ast.For, ast.While)):
            where += (type(node).__name__.lower(),)
        for field, value in ast.iter_fields(node):
            if field not in ("annotation", "returns"):
                for child in value if isinstance(value, list) else [value]:
                    if isinstance(child, ast.AST):
                        visit(child, where)

    visit(ast.parse(source), ())
    return found


def name_uses(source: str, name: str) -> list[str]:
    """Where each use of ``name`` sits, as ``uses`` reports it."""
    return uses(source, lambda node: isinstance(node, ast.Name) and node.id == name)


def text_uses(source: str, text: str) -> list[str]:
    """Where each string literal holding ``text`` sits, as ``uses`` reports it; an f-string counts each literal
    piece."""
    return uses(
        source, lambda node: isinstance(node, ast.Constant) and isinstance(node.value, str) and text in node.value
    )


def test_name_uses_finds_calls_and_references():
    source = (
        "def read(path): ...\n"
        "def one(paths):\n"
        "    for path in paths:\n"
        "        read(path)\n"
        "def two(paths):\n"
        "    while paths:\n"
        "        return list(map(read, paths))\n"
        "read('top')\n"
    )
    assert name_uses(source, "read") == ["one/for", "two/while", ""]


def test_name_uses_skips_annotations():
    source = (
        "from __future__ import annotations\n"
        "def f(path: Path, *rest: Path) -> Path:\n"
        "    kept: list[Path] = []\n"
        "    return Path(path)\n"
    )
    assert name_uses(source, "Path") == ["f"]


def test_text_uses_finds_literals_and_skips_docstrings():
    source = (
        '"""A module that says: too short."""\n'
        "def reason(n):\n"
        '    """Says too short."""\n'
        "    return f'{n} too short'\n"
        "def other():\n"
        "    for _ in range(2):\n"
        "        print('too short', 'too')\n"
    )
    assert text_uses(source, "too short") == ["reason", "other/for"]


def test_ingestion_reads_files_in_one_place():
    # a second read site could read a pipe or a FIFO twice
    assert name_uses((SRC / "ingestion.py").read_text(encoding="utf-8"), "_read_text") == ["_read_panel/for"]


def test_ingestion_makes_returns_in_two_places():
    # the panel reader converts each file alone, so no group of files is batched beside backtest's rank stacks
    assert name_uses((SRC / "ingestion.py").read_text(encoding="utf-8"), "_returns") == [
        "_read_panel/for", "to_returns",
    ]


def test_ingestion_parses_text_in_one_place():
    # the fast path, else the row loop, in _parse alone: no reader runs a second parse of a file's text
    source = (SRC / "ingestion.py").read_text(encoding="utf-8")
    assert name_uses(source, "_parse_plain") == name_uses(source, "_row_loop") == ["_parse"]


def test_ingestion_keeps_dates_of_column_text_in_one_place():
    # a plain file's dates stay its checked date column; only _Dates' builder turns that text into kept
    # dates, on first use, so no reader path builds a calendar of dates again.  _Dates' constructor names the
    # date types only to check the dates it is given, _parse_plain converts a chunk's cells off the calendar
    # only to check them, and the row loop builds its dates record by record
    assert name_uses((SRC / "ingestion.py").read_text(encoding="utf-8"), "dt") == [
        "__init__/for", "__init__/for", "_built", "_parse_plain/while", "_row_loop/for",
    ]


def test_backtest_builds_each_input_path_once():
    # _cmd_backtest makes one Path per input and one for --out; the name check, _read_panel and
    # _input_names take those, and build none (_read_error_table is regress's one table)
    assert name_uses((SRC / "cli.py").read_text(encoding="utf-8"), "Path") == ["_cmd_backtest", "_cmd_backtest"]
    assert name_uses((SRC / "commands.py").read_text(encoding="utf-8"), "Path") == ["_read_error_table"]
    assert name_uses((SRC / "ingestion.py").read_text(encoding="utf-8"), "Path") == []


def test_backtest_builds_its_report_files_in_one_place():
    # which files a backtest writes and what they hold is decided in _report_files alone
    source = (SRC / "cli.py").read_text(encoding="utf-8")
    assert name_uses(source, "_render_csv") == name_uses(source, "_render_md") == ["_report_files"]
    assert name_uses(source, "_report_files") == ["_cmd_backtest"]


def test_backtest_counts_violations_in_one_place():
    # run_suite and var_backtest take each spec's violation counts, or its length skip, from _var_counts alone,
    # the one caller of the rank pass; and a length skip's text is written in _shortfall alone
    source = (SRC / "backtest.py").read_text(encoding="utf-8")
    assert name_uses(source, "_violation_counts") == ["_var_counts/for/for"]
    assert name_uses(source, "_var_counts") == ["var_backtest", "run_suite/for"]
    assert [
        (path.stem, where) for path in sorted(SRC.glob("*.py"))
        for where in text_uses(path.read_text(encoding="utf-8"), "returns < required")
    ] == [("backtest", "_shortfall")]


def class_bases(source: str) -> dict[str, set[str]]:
    """Each class ``source`` defines, with the names of its bases; a base ``x.Y`` counts as ``Y``."""
    return {
        node.name: {base.id if isinstance(base, ast.Name) else base.attr for base in node.bases
                    if isinstance(base, (ast.Name, ast.Attribute))}
        for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef)
    }


def test_class_bases_finds_plain_and_dotted_bases():
    source = (
        "class A(Exception): ...\n"
        "class B(errors.A, Mixin): ...\n"
        "def f():\n"
        "    class C(A): ...\n"
        "    return C\n"
    )
    assert class_bases(source) == {"A": {"Exception"}, "B": {"A", "Mixin"}, "C": {"A"}}


def test_input_error_has_one_subclass():
    # a refusal is an InputError, told apart by its message; a second subclass would split the refusals again
    bases = {}
    for path in sorted(SRC.glob("*.py")):
        bases.update(class_bases(path.read_text(encoding="utf-8")))
    subclasses = {"InputError"}
    while grown := {name for name, named in bases.items() if named & subclasses} - subclasses:
        subclasses |= grown
    assert subclasses - {"InputError"} == {"SingularDesignError"}


def call_arguments_of(source: str, name: str) -> list[str]:
    """For each use of ``name`` in source order, the function whose call takes a call of ``name`` as a direct
    argument, else ""."""
    tree = ast.parse(source)
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == name:
            call, outer = parents[node], parents.get(parents[node])
            inside = (
                isinstance(call, ast.Call) and call.func is node
                and isinstance(outer, ast.Call) and call in outer.args and isinstance(outer.func, ast.Name)
            )
            found.append(((node.lineno, node.col_offset), outer.func.id if inside else ""))
    return [caller for _, caller in sorted(found)]


def test_call_arguments_of_finds_direct_arguments_only():
    source = (
        "run(read(a), b)\n"
        "x = read(a)\n"
        "run(f(read(a)))\n"
        "run(read)\n"
    )
    assert call_arguments_of(source, "read") == ["run", "", "f", ""]


def test_backtest_streams_the_panel_into_the_suite():
    # the panel reader yields each series as its file is converted; called anywhere but as run_suite's
    # argument, a backtest could hold every series it read again
    assert call_arguments_of((SRC / "cli.py").read_text(encoding="utf-8"), "_read_panel") == ["run_suite"]


def materialised(source: str, function: str) -> list[str]:
    """The calls to ``list``, ``sorted`` or ``tuple`` in ``function`` that take its first parameter."""
    node = next(
        node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.FunctionDef) and node.name == function
    )
    given = node.args.args[0].arg
    return [
        call.func.id
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id in ("list", "sorted", "tuple")
        and any(isinstance(arg, ast.Name) and arg.id == given for arg in call.args)
    ]


def test_materialised_finds_calls_on_the_first_parameter():
    source = (
        "def f(items, other):\n"
        "    a = list(items)\n"
        "    b = sorted(other)\n"
        "    return tuple(items), list(x for x in items)\n"
    )
    assert materialised(source, "f") == ["list", "tuple"]


@pytest.mark.parametrize("function", ["run_suite", "_stacks"])
def test_suite_never_materialises_its_input(function):
    # run_suite takes its series once, a stack at a time, through _stacks; a list of them would hold the panel
    assert materialised((SRC / "backtest.py").read_text(encoding="utf-8"), function) == []


def quoted_private_names(source: str) -> set[str]:
    """The private names ``source`` quotes in double backticks, such as ``_x``."""
    return set(re.findall(r"``(_\w+)``", source))


def defined_names(source: str) -> set[str]:
    """The names ``source`` defines: defs, classes, assignment targets, attributes and ``__slots__`` entries."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__slots__" for target in node.targets
        ):
            names.update(ast.literal_eval(node.value))
    return names


def test_quoted_private_names_and_defined_names():
    source = (
        '"""Uses ``_f``, ``_C``, ``_x``, ``_attr``, ``_slot``, ``_gone``, `_one` and ``public``."""\n'
        "class _C:\n"
        "    __slots__ = ('_slot',)\n"
        "def _f():\n"
        "    _x = 1\n"
        "    obj._attr = _x  # ``_also_gone``\n"
    )
    assert quoted_private_names(source) - defined_names(source) == {"_gone", "_also_gone"}


def test_quoted_private_names_are_defined():
    # a docstring that quotes a private name the code no longer defines describes code that is gone
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    defined = set().union(*map(defined_names, sources.values()))
    undefined = [
        (name, quoted) for name, source in sources.items() for quoted in sorted(quoted_private_names(source) - defined)
    ]
    assert undefined == []


def prose_private_names(source: str) -> set[str]:
    """The private names, such as ``_x``, that the docstrings and comments of ``source`` name, quoted or bare.

    A docstring is any statement that is a string alone, as ``uses`` reads it; a name after a dot is an attribute,
    perhaps of a module outside the package, and is left out.
    """
    texts = [
        node.value.value for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
    ]
    texts += [
        token.string for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.COMMENT
    ]
    return {name for text in texts for name in re.findall(r"(?<![\w.])_[A-Za-z]\w*", text)}


def test_prose_private_names_finds_bare_names_in_docstrings_and_comments():
    source = (
        '"""Module: ``_quoted`` and _bare, not __dunder__, np._attr, a_b or 1_000."""\n'
        "def _require(n):\n"
        '    """Raise _Skip unless n > 1."""\n'
        "    x = '_in_code'  # see _Comment (and _require)\n"
        "    return x\n"
    )
    assert prose_private_names(source) == {"_quoted", "_bare", "_Skip", "_Comment", "_require"}
    assert prose_private_names(source) - defined_names(source) == {"_quoted", "_bare", "_Skip", "_Comment"}


def test_private_names_in_prose_are_defined():
    # a docstring or comment that names a private name the code no longer defines, even bare, describes code
    # that is gone
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    defined = set().union(*map(defined_names, sources.values()))
    undefined = [
        (name, named) for name, source in sources.items() for named in sorted(prose_private_names(source) - defined)
    ]
    assert undefined == []


def readme_section(title: str) -> str:
    """The text of the README section headed ``## title``, up to the next ``## `` heading."""
    readme = (SRC.parents[1] / "README.md").read_text(encoding="utf-8")
    return re.search(rf"^## {re.escape(title)}\n(.*?)(?=^## |\Z)", readme, re.M | re.S).group(1)


def quoted_numbers(text: str, phrase: str) -> list[int]:
    """Each number that ``text`` quotes where ``phrase`` says ``N``, whatever whitespace or line break separates
    its words."""
    words = (r"(\d+)" if word == "N" else re.escape(word) for word in phrase.split())
    return [int(n) for n in re.findall(r"\s+".join(words), text)]


def test_quoted_numbers_reads_across_line_breaks():
    text = "split in 8\nKi-character chunks, in tiles of\nat most 64 Ki compares, in 12 Ki-character pieces"
    assert quoted_numbers(text, "N Ki-character chunks") == [8]
    assert quoted_numbers(text, "tiles of at most N Ki compares") == [64]


def test_readme_performance_quotes_the_chunk_sizes():
    # the Performance section states the two chunk constants that set the reader's and the rank pass's memory
    from histrisk import backtest, ingestion

    performance = readme_section("Performance")
    assert quoted_numbers(performance, "N Ki-character chunks") == [ingestion._CHUNK_CHARS // 1024]
    assert quoted_numbers(performance, "tiles of at most N Ki compares") == [backtest._CHUNK_ELEMS // 1024]
