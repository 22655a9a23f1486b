"""The package's metadata and its README examples agree with the code."""

import os
import re
import shlex
import subprocess
import sys
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


def test_cli_import_leaves_numpy_random_unloaded():
    # numpy.random costs about 14 ms of start-up; the trial generators'
    # seed-words type is made on first use, not at import
    code = "import sys, vanetconn.cli; print('numpy.random' in sys.modules)"
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True, env=dict(os.environ, PYTHONPATH=path))
    assert result.stdout.strip() == "False"
