"""The code keeps to the oldest Python that ``pyproject.toml`` admits.

The tests may run on a newer interpreter only, so this reads the source
instead: every module must parse in the floor version's grammar, and no
regular expression literal may use possessive quantifiers or atomic
groups, which ``re`` accepts only from 3.11 (older versions refuse the
pattern when it is compiled, that is when its module is imported).
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    p for d in ("src", "tools", "tests") for p in (ROOT / d).rglob("*.py")
)
# Read once escapes and character classes are dropped.
_ESCAPE = re.compile(r"\\.")
_CHAR_CLASS = re.compile(r"\[\^?\]?[^\]]*\]")
_POSSESSIVE_OR_ATOMIC = re.compile(r"[*+?}]\+|\(\?>")


def _floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


def _re_literals(tree: ast.AST):
    """The constant pattern of every ``re.<function>(pattern, ...)`` call."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "re"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            yield node.args[0].value


def test_floor_is_3_10():
    assert _floor() == (3, 10)


def test_source_keeps_to_the_floor():
    assert SOURCES
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=_floor())
        for pattern in _re_literals(tree):
            bare = _CHAR_CLASS.sub("", _ESCAPE.sub("", pattern))
            assert not _POSSESSIVE_OR_ATOMIC.search(bare), (path.name, pattern)


def test_the_check_sees_possessive_quantifiers():
    for pattern in (r'(?:[^"]++|x)*+', r"a{2}+", r"(?>ab)", r"[\]]?+"):
        assert _POSSESSIVE_OR_ATOMIC.search(_CHAR_CLASS.sub("", _ESCAPE.sub("", pattern)))
    for pattern in (r"[*+?}]\+|\(\?>", r"a+b*c?", r"\++", r"[++]"):
        assert not _POSSESSIVE_OR_ATOMIC.search(_CHAR_CLASS.sub("", _ESCAPE.sub("", pattern)))
