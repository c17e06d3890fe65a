"""README's Python runs as written: the quick-start trace generator, then the
library-use block, each in a fresh interpreter in one temporary directory, so
a README that names a removed API fails here."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _section(title):
    """The README text under the ``## title`` heading, up to the next one."""
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _run(program, cwd):
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-c", program], cwd=cwd, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )


def test_quick_start_then_library_use(tmp_path):
    generate = re.search(r'python -c "\n(.*?)\n"', _section("Quick start"), re.S).group(1)
    library = re.search(r"```python\n(.*?)```", _section("Library use"), re.S).group(1)
    # the library block reads the events file that the generator writes
    library += "assert graph.num_arcs > 0 and best in graph.node_ids\n"
    for program in (generate, library):
        done = _run(program, tmp_path)
        assert done.returncode == 0, done.stderr
