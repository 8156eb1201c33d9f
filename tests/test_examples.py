"""Smoke tests: every script in examples/ must run against the current API.

The examples are documentation that executes; none of them were exercised
by CI before, so interface changes (like the engine refactor of PR 1 or
the reduction subsystem) could silently break them.  Each test runs one
script in a subprocess with arguments chosen to finish quickly and only
asserts a clean exit — the scripts contain their own assertions.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES_DIR = REPO_ROOT / "examples"

# Script name -> fast smoke-test arguments.
EXAMPLE_ARGS = {
    "quickstart.py": [],
    "verify_aiger_file.py": [],
    "counterexample_trace.py": [],
    "compare_generalization.py": ["3", "4"],
    "reproduce_paper.py": ["--quick", "--timeout", "2", "--jobs", "0"],
}


def _run_example(name, args):
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
        cwd=str(REPO_ROOT),
    )


def test_every_example_is_covered():
    """A new example script must be added to EXAMPLE_ARGS."""
    scripts = {path.name for path in EXAMPLES_DIR.glob("*.py")}
    assert scripts == set(EXAMPLE_ARGS)


@pytest.mark.parametrize("name", sorted(EXAMPLE_ARGS))
def test_example_runs_clean(name):
    completed = _run_example(name, EXAMPLE_ARGS[name])
    assert completed.returncode == 0, (
        f"{name} exited with {completed.returncode}\n"
        f"--- stdout ---\n{completed.stdout[-2000:]}\n"
        f"--- stderr ---\n{completed.stderr[-2000:]}"
    )
    assert completed.stdout.strip(), f"{name} produced no output"


def _quickstart_check_commands():
    """The ``check`` command lines of the README quickstart, as argv lists."""
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    quickstart = readme.split("## Quickstart", 1)[1].split("```bash", 1)[1]
    prefix = "PYTHONPATH=src python -m repro.cli "
    return [
        line[len(prefix):].split()
        for line in quickstart.split("```", 1)[0].splitlines()
        if line.startswith(prefix + "check ")
    ]


def test_readme_quickstart_check_commands_run(monkeypatch, capsys):
    from repro.cli import main

    commands = _quickstart_check_commands()
    assert len(commands) >= 2
    monkeypatch.chdir(REPO_ROOT)
    for argv in commands:
        assert main(argv) == 0, argv
        assert "safe" in capsys.readouterr().out
