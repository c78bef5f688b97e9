"""The README's library example runs as written."""

import re
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example():
    """The python code block under the README's "## Library example"."""
    text = README.read_text()
    section = text.split("## Library example", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_library_example_runs():
    scope = {}
    exec(compile(library_example(), str(README), "exec"), scope)
    record, trajectory = scope["record"], scope["trajectory"]
    assert len(record.times) == 251
    assert trajectory.positions.shape == (251, 1)
    assert np.all(np.isfinite(trajectory.positions))
    assert trajectory.positions[-1, 0] == pytest.approx(-2.596, abs=1e-3)
