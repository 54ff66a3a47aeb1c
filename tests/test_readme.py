"""The README's library example runs against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The Python block under the README's "## Library example" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library example\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs():
    names = {}
    exec(compile(library_example(), "README.md", "exec"), names)
    assert isinstance(names["q"], complex)
    assert names["worst"] < 1e-12
    assert abs(names["circle"].center - 2) < 1e-12 and abs(names["circle"].radius - 1) < 1e-12
    assert [curve.kind for curve, _ in names["fits"]] == ["circle", "line"]
