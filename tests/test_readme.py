"""The README's library example, run through the package root."""

import contextlib
import io
from pathlib import Path

import qobf

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example_runs_as_documented():
    example = README.read_text().split("```python\n", 1)[1].split("```", 1)[0]
    assert example.startswith("from qobf import ")
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(example, {})
    top, success = printed.getvalue().splitlines()
    assert top == "((7, 6, 6), 180)"
    assert success.startswith("0.99684")


def test_every_exported_name_resolves():
    assert len(qobf.__all__) <= 12
    assert [name for name in qobf.__all__ if not hasattr(qobf, name)] == []
