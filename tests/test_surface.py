"""Names outside the test suite relies on: README's library example, the
benchmark's tracing hooks and the catalog tool."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    library = readme[readme.index("\n## Library\n"):]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})


# In a subprocess, so the wrappers never replace the functions other tests use.
HOOKS_PROGRAM = """
import json, sys
sys.path[:0] = ["src", "perfbench"]
import tracing
tracer = tracing.Tracer()
tracer.install()
needed = {name for _, names in tracing.TIMES.values() for name in names}
needed |= set(tracing.COUNT_SOURCES.values())
print(json.dumps(sorted(needed - tracer.installed)))
"""


def test_every_benchmark_metric_has_its_hook():
    out = subprocess.run(
        [sys.executable, "-c", HOOKS_PROGRAM],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "[]"


def test_catalog_tool_rebuilds_the_shipped_catalog_byte_for_byte():
    out = subprocess.run(
        [sys.executable, "tools/build_catalog.py"],
        cwd=ROOT, capture_output=True, check=True,
    ).stdout
    assert out == (ROOT / "src/coprimegraph/data/catalog.json").read_bytes()
