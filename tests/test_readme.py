"""The README's library quick tour runs, and its commented claims hold."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_tour(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    ns = {}
    exec(compile(blocks[0], str(README), "exec"), ns)
    assert capsys.readouterr().out == "True\n"
    assert ns["bands"].edges == pytest.approx((0.5, 1.0, 1.5), abs=1e-8)
    assert ns["resid"] < 1e-4
    assert ns["bound"].kernel[0].normalizable is True
