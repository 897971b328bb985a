"""Fixtures shared by the test files."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import agentrec

# where the agentrec this process imported lives: src/ in a checkout, or the
# site-packages directory of an installed package
IMPORT_ROOT = str(Path(agentrec.__file__).resolve().parent.parent)


@pytest.fixture
def fresh_python():
    """A function that starts ``python *args`` in a new interpreter importing
    the same agentrec as this process, with ``env`` added to its environment.
    It returns the Popen, whose stdout and stderr are text pipes; the fixture
    ends any process still running when the test ends."""
    started = []

    def start(*args, **env):
        started.append(subprocess.Popen(
            [sys.executable, *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=IMPORT_ROOT, **env)))
        return started[-1]
    yield start
    for process in started:
        with process:  # closes its pipes and waits for it
            process.kill()
