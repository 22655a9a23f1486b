"""The package's metadata and its README example agree with the code."""

import re
from pathlib import Path

import vanetconn

ROOT = Path(__file__).resolve().parents[1]


def test_pyproject_version_is_package_version():
    # a regex, not tomllib, which Python 3.10 lacks
    match = re.search(r'^version = "([^"]+)"$', (ROOT / "pyproject.toml").read_text(), re.M)
    assert match is not None
    assert match.group(1) == vanetconn.__version__


def test_readme_library_sketch_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("## Library sketch"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] in ("True", "False")
    assert len(printed) == 1 + 3 * 3  # three densities, three methods
