"""The README's Library example runs as printed."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


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
