"""The README's examples run as printed: the Library block, and every
`bchwaves ...` line of the CLI block."""

import re
import shlex
from pathlib import Path

import pytest

from bchwaves.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _cli_examples() -> list[tuple[str, list[str]]]:
    """(comment, argv) of each bchwaves line of the README's sh blocks, with
    the comment lines above it and its continuation lines joined."""
    examples, comment, command = [], [], None
    for block in re.findall(r"```sh\n(.*?)```",
                            README.read_text(encoding="utf-8"), re.S):
        for line in block.splitlines():
            if command is not None:  # after a continuation backslash
                command = command[:-1] + " " + line.strip()
            elif line.startswith("#"):
                comment.append(line.lstrip("# "))
            elif line.startswith("bchwaves "):
                command = line
            else:
                comment = []
            if command is not None and not command.endswith("\\"):
                examples.append((" ".join(comment), shlex.split(command)[1:]))
                comment, command = [], None
    return examples


def _params():
    for comment, argv in _cli_examples():
        slow = "--horizon-periods" in argv and float(
            argv[argv.index("--horizon-periods") + 1]) >= 50
        yield pytest.param(comment, argv, id=argv[0],
                           marks=[pytest.mark.slow] if slow else [])


def test_readme_has_every_command_example():
    assert ([argv[0] for _, argv in _cli_examples()]
            == ["profile", "classify", "spectrum", "evolve", "sweep"])


@pytest.mark.parametrize("comment,argv", _params())
def test_readme_cli_example(comment, argv, tmp_path):
    """The line exits 0 with --out in a temporary folder and writes every
    file its comment names (the 50-period evolve is slow)."""
    argv = list(argv)
    argv[argv.index("--out") + 1] = str(tmp_path)
    assert main(argv) == 0
    named = re.findall(r"[\w.]+\.(?:csv|json)\b", comment)
    assert named, comment
    for name in named:
        assert (tmp_path / name).is_file(), name


@pytest.mark.slow
def test_readme_library_example(capsys):
    """The README's one python block runs (its run_experiment evolves 50
    periods, hence slow) and prints what its comments say: the inertia
    1 1 by theta_spectrum and again by kernel_inertia, then a bounded
    response ratio; the classification is StableCriteriaMet."""
    blocks = re.findall(r"```python\n(.*?)```",
                        README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(blocks[0], namespace)  # noqa: S102
    assert namespace["report"].classification == "StableCriteriaMet"
    printed = capsys.readouterr().out.splitlines()
    assert printed[:2] == ["1 1", "1 1"]
    assert 0.0 < float(printed[2]) < 10.0
