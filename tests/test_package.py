"""The package's metadata and its README examples agree with the code."""

import re
import shlex
from pathlib import Path

import vanetconn
from vanetconn import cli

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


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("## CLI"):]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1).replace("\\\n", " ")
    commands = [shlex.split(line, comments=True)[1:] for line in block.splitlines()
                if line.startswith("vanetconn ")]
    assert [argv[0] for argv in commands] == ["single", "sweep", "analytic", "compare",
                                              "figure", "selftest"]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        # argparse keeps the last --trials given, so each line runs 4 trials
        if argv[0] == "figure":
            argv += ["--output-dir", str(tmp_path / "figures")]
        if argv[0] != "selftest":
            argv += ["--trials", "4"]
        assert cli.main(argv) == 0, argv
