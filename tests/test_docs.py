"""The README lists exactly the flags of the parser and the kinds of the
kind table, and quotes the budgets and exit codes the code sets."""

import argparse
import re
from pathlib import Path

from dynetlogit import cli, design, simulate, terms
from dynetlogit.cli import _build_parser
from dynetlogit.terms import KINDS

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_synopsis() -> dict:
    """Flags per command in the first code block under "## Command line"."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    flags, command = {}, None
    for line in block.splitlines():
        head = re.match(r"dynetlogit (\w+)", line)
        if head:
            command = head.group(1)
            flags[command] = set()
        if command is not None:
            flags[command] |= set(re.findall(r"(?<![\w-])(--?[a-z][\w-]*)", line))
    return flags


def _parser_flags() -> dict:
    """Per command, the option strings of each of its optional arguments."""
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: [tuple(a.option_strings) for a in parser._actions
                   if a.option_strings and not isinstance(a, argparse._HelpAction)]
            for name, parser in sub.choices.items()}


def test_readme_synopsis_matches_parser():
    documented, actual = _readme_synopsis(), _parser_flags()
    assert set(documented) == set(actual)
    for command, options in actual.items():
        # every documented flag is one of the command's, and every option of
        # the command is documented under one of its spellings
        known = {flag for spellings in options for flag in spellings}
        assert documented[command] <= known, (command, documented[command] - known)
        missing = [s for s in options if not documented[command] & set(s)]
        assert not missing, (command, missing)


def test_readme_kinds_match_the_kind_table():
    text = " ".join(README.read_text(encoding="utf-8").split())
    vertex, edge = re.search(r"Kinds: (.*?) \(vertex\); (.*?) \(edge\)\.", text).groups()
    for target, listed in (("vertex", vertex), ("edge", edge)):
        declared = [name for name, kind in KINDS.items() if target in kind.targets]
        assert re.findall(r"`(\w+)`", listed) == declared, target


def _quoted_value(text: str):
    """The number a README quote such as "10 million" or "2^17" states."""
    million = re.fullmatch(r"(\d+) million", text)
    if million:
        return int(million[1]) * 10**6
    power = re.fullmatch(r"(\d+)\^(\d+)", text)
    return int(power[1]) ** int(power[2]) if power else None


def test_readme_budgets_match_the_code():
    text = " ".join(README.read_text(encoding="utf-8").split())
    quoted = {(module, name): _quoted_value(value) for module, name, value
              in re.findall(r"`(\w+)\.([A-Z_]+)` \(([^)]*)\)", text)}
    modules = {"design": design, "simulate": simulate, "terms": terms}
    for module, name in (("design", "ROW_BUDGET"), ("simulate", "PAIR_BUDGET"),
                         ("terms", "CYCLE_WORK_BUDGET")):
        assert quoted[module, name] == getattr(modules[module], name), name


def test_readme_exit_codes_match_the_code():
    text = " ".join(README.read_text(encoding="utf-8").split())
    sentence = re.search(r"Exit codes: (.*?)\.(?: |$)", text)[1]
    while "(" in sentence:  # drop the asides, innermost first
        sentence = re.sub(r"\([^()]*\)", "", sentence)
    documented = dict(re.findall(r"(\d+) ([a-zA-Z/ -]+?)(?:,| detected|$)", sentence))
    names = {"success": "EXIT_OK", "parse error": "EXIT_PARSE",
             "validation error": "EXIT_VALIDATION", "non-convergence": "EXIT_CONVERGENCE",
             "I/O error": "EXIT_IO", "separation": "EXIT_SEPARATION"}
    assert {code: names[what.strip()] for code, what in documented.items()} == {
        str(getattr(cli, name)): name for name in dir(cli) if name.startswith("EXIT_")}
