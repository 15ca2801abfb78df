"""README.md names the code instead of restating it; these checks keep it current."""
import functools
import importlib
import pkgutil
import re
from pathlib import Path

import fabrik_sqp

README = Path(__file__).resolve().parent.parent / "README.md"
MAX_LINE = 120  # characters, for every line outside a code block
# the package and its modules, by the name a README dotted name starts with
HEADS = {"fabrik_sqp": fabrik_sqp} | {
    m.name: importlib.import_module(f"fabrik_sqp.{m.name}")
    for m in pkgutil.iter_modules(fabrik_sqp.__path__) if m.name != "__main__"
}
DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)")


def split(text: str):
    """([(language, body) of each fenced code block], [the lines outside them])."""
    code, prose, lang, body = [], [], None, []
    for line in text.splitlines():
        if line.startswith("```"):
            if lang is None:
                lang, body = line[3:].strip(), []
            else:
                code.append((lang, "\n".join(body)))
                lang = None
        elif lang is None:
            prose.append(line)
        else:
            body.append(line)
    return code, prose


CODE, PROSE = split(README.read_text(encoding="utf-8"))


def test_python_blocks_run():
    python = [body for lang, body in CODE if lang == "python"]
    assert python
    for body in python:
        exec(compile(body, str(README), "exec"), {"__name__": "readme"})


def test_named_code_exists():
    """Every backticked dotted name whose head is the package or one of
    its modules, `fabrik.solve` or `fabrik_sqp.robots.model_to_json`,
    resolves attribute by attribute."""
    names = {m.group(1) for line in PROSE for m in DOTTED.finditer(line)}
    names = sorted(n for n in names if n.split(".")[0] in HEADS)
    assert len(names) >= 20  # a pattern that finds nothing checks nothing
    missing = []
    for name in names:
        head, *rest = name.split(".")
        try:
            functools.reduce(getattr, rest, HEADS[head])
        except AttributeError:
            missing.append(name)
    assert not missing


def test_prose_lines_short():
    assert not [line for line in PROSE if len(line) > MAX_LINE]
