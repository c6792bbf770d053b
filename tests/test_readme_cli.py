"""Every command in the README's CLI block runs and exits 0, and the
library example prints what its comment says.

The blocks are read from README.md, so the documented commands cannot
drift from the program.  The CLI lines run in order in one directory, as
later lines read the files that earlier ones write.
"""

import os
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def readme_commands() -> list[list[str]]:
    text = (ROOT / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines() if line.strip()]


def source_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + ([path] if path else [])))


def test_readme_cli_block_runs(tmp_path):
    commands = readme_commands()
    assert len(commands) >= 10 and all(argv[0] == "hopfseq" for argv in commands)
    env = source_env()
    for argv in commands:
        done = subprocess.run([sys.executable, "-m", "hopfseq.cli", *argv[1:]],
                              cwd=tmp_path, env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, (shlex.join(argv), done.stdout, done.stderr)


def test_readme_library_example_prints_its_comment():
    text = (ROOT / "README.md").read_text()
    block = text.split("\n## Library example\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    expected = [ln[2:] for ln in block.splitlines() if ln.startswith("# [")]
    done = subprocess.run([sys.executable, "-c", block], env=source_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert expected and done.stdout.splitlines() == expected
