"""The package's public names: everything in `synstdp.__all__` resolves, and
every name the README lists as a key entry point is exported.  Its import
runs numpy's BLAS on one thread."""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import synstdp

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_names_resolve():
    missing = [name for name in synstdp.__all__ if not hasattr(synstdp, name)]
    assert not missing
    assert len(set(synstdp.__all__)) == len(synstdp.__all__)


def test_readme_entry_points_are_exported():
    text = README.read_text(encoding="utf-8")
    paragraph = text[text.index("Key entry points:"):].split("\n\n", 1)[0]
    names = re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", paragraph)
    assert len(names) >= 15
    assert [n for n in names if n not in synstdp.__all__] == []


@pytest.mark.skipif(not sys.platform.startswith("linux") or (os.cpu_count() or 1) < 2,
                    reason="counts the threads in /proc/self/task; one core starts no BLAS pool")
def test_import_runs_blas_on_one_thread():
    """A fresh `import synstdp` leaves the process one thread: numpy's
    OpenBLAS pool is not started.  A value the caller set wins."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import os, synstdp; "
            "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))")

    def run(**env):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={"PYTHONPATH": str(src), **env}, timeout=60)
        assert proc.returncode == 0, proc.stderr
        tasks, value = proc.stdout.split()
        return int(tasks), value

    assert run()[0] == 1
    assert run(OPENBLAS_NUM_THREADS="2")[1] == "2"
