"""The CLI's option surface is pinned: refactoring the parser must not add,
drop, or change any option.

``tests/data/cli_surface.json`` records, for the top-level parser and every
subcommand, each argument's option strings, dest, default, choices, nargs,
required flag and argparse action class (help text is deliberately left
out).  The snapshot is taken in a fresh interpreter so that models other
tests register do not leak into the ``--model`` choices.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

FIXTURE = Path(__file__).parent / "data" / "cli_surface.json"
SRC = Path(__file__).resolve().parent.parent / "src"


def _action_row(action: argparse.Action) -> dict:
    choices = action.choices
    if isinstance(choices, dict):  # the subparsers action
        choices = sorted(choices)
    elif choices is not None:
        choices = list(choices)
    return {
        "option_strings": list(action.option_strings),
        "dest": action.dest,
        "default": action.default,
        "choices": choices,
        "nargs": action.nargs,
        "required": action.required,
        "action": type(action).__name__,
    }


def _parser_rows(parser: argparse.ArgumentParser) -> dict:
    # positionals parse in declaration order; optionals are order-free
    positionals = [
        _action_row(a) for a in parser._actions if not a.option_strings
    ]
    optionals = sorted(
        (_action_row(a) for a in parser._actions if a.option_strings),
        key=lambda row: row["option_strings"],
    )
    return {"positionals": positionals, "optionals": optionals}


def cli_surface() -> dict:
    """The option surface of ``repro.cli.build_parser()``."""
    from repro.cli import build_parser

    parser = build_parser()
    surface = {"repro": _parser_rows(parser)}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in sorted(action.choices.items()):
                surface[name] = _parser_rows(sub)
    return surface


def _surface_in_fresh_interpreter() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); "
        "from test_cli_surface import cli_surface; "
        "print(json.dumps(cli_surface()))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(Path(__file__).parent)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def test_cli_surface_matches_snapshot():
    want = json.loads(FIXTURE.read_text())
    got = _surface_in_fresh_interpreter()
    assert sorted(got) == sorted(want), "subcommand set changed"
    for command in sorted(want):
        assert got[command] == want[command], f"{command}: options changed"


if __name__ == "__main__":  # regenerate: python tests/test_cli_surface.py
    FIXTURE.write_text(json.dumps(cli_surface(), indent=1, sort_keys=True) + "\n")
