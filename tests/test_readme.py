"""The README's library example runs, and its CLI examples parse, as written."""

import re
import shlex
from pathlib import Path

from grng import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["chi2", "ad", "ks"]


def test_cli_examples_parse():
    """Each `grng` line of the CLI block is a valid command line; none runs."""
    block = re.search(r"## CLI\n\n```\n(.*?)```", README.read_text(), re.S)
    examples = [shlex.split(line)[1:] for line in block.group(1).splitlines()
                if line.startswith("grng ")]
    assert {argv[0] for argv in examples} == set(cli._COMMANDS)
    parser = cli._build_parser()
    for argv in examples:
        parser.parse_args(argv)
