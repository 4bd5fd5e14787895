"""README's command-line examples stay in step with the parser."""

import re
import shlex
from pathlib import Path

import pytest

from toolwear.cli import build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _subparsers():
    action = next(a for a in build_parser()._actions if a.dest == "command")
    return action.choices


def _sh_commands():
    """Each ``toolwear ...`` line of README's ``sh`` blocks, continuation lines joined."""
    blocks = re.findall(r"```sh\n(.*?)```", README, re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("toolwear ")]


@pytest.mark.parametrize("argv", _sh_commands(), ids=lambda argv: argv[0])
def test_sh_examples_parse(argv):
    build_parser().parse_args(argv)


def test_inline_options_belong_to_their_subcommand():
    """Every inline `` `<subcommand> --option ...` `` names an option of that subcommand."""
    subparsers = _subparsers()
    names = "|".join(subparsers)
    found = re.findall(rf"`(?:toolwear )?({names})\s+(--[\w-]+)[^`]*`", README)
    assert found
    unknown = [f"{cmd} {opt}" for cmd, opt in found
               if opt not in subparsers[cmd]._option_string_actions]
    assert not unknown
