"""The README's CLI examples, byte for byte against their recorded output.

``tests/golden/readme-N.stdout`` holds what the N-th ``unruhsim`` command
of the README's CLI block prints, and ``readme-N-<name>`` the file it
writes to ``--out <name>``: the examples' expected bytes.  A change
that means to alter their output re-records these files and says so in
CHANGES.md.
"""

import shlex
from pathlib import Path

import pytest

from unruhsim.cli import EXIT_OK, main

GOLDEN = Path(__file__).resolve().parent / "golden"
README = Path(__file__).resolve().parents[1] / "README.md"


def readme_examples():
    """argv of every ``unruhsim`` command in the README's CLI block, continuation lines joined."""
    block = README.read_text(encoding="utf-8").split("## CLI", 1)[1].split("```", 2)[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("unruhsim ")]


EXAMPLES = readme_examples()


def test_readme_has_five_cli_examples():
    assert len(EXAMPLES) == 5


@pytest.mark.parametrize("index", range(1, len(EXAMPLES) + 1))
def test_readme_example_matches_recorded_output(capsys, tmp_path, index):
    argv = list(EXAMPLES[index - 1])
    out = None
    if "--out" in argv:
        k = argv.index("--out") + 1
        out = argv[k]
        argv[k] = str(tmp_path / out)
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == (GOLDEN / f"readme-{index}.stdout").read_text(encoding="ascii")
    if out is not None:
        assert (tmp_path / out).read_bytes() == (GOLDEN / f"readme-{index}-{out}").read_bytes()
