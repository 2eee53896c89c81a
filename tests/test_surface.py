"""Names outside the test suite relies on: README's library example, the
benchmark's tracing hooks and the catalog tool; and what the package imports
at run time."""

import json
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


# Runs the commands in one interpreter, with NetworkX importable or blocked,
# and prints whether the import of the CLI loaded it, then each command's
# exit code and stdout.
NO_NETWORKX_PROGRAM = """
import contextlib, io, json, sys
if sys.argv[1] == "blocked":
    sys.modules["networkx"] = None
sys.path.insert(0, "src")
import coprimegraph.cli as cli
loaded = "networkx" in sys.modules
results = []
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        results.append([cli.main(argv), out.getvalue()])
print(json.dumps([loaded, results]))
"""


def test_no_command_imports_networkx(tmp_path):
    path = tmp_path / "path4.txt"
    path.write_text("n 4\n0 1\n1 2\n2 3\n")
    calls = [
        ["analyze", "S3", "--format", "json"],
        ["analyze", "Z:900", "--format", "json"],
        ["verify", "--max-order", "420"],
        ["export", "D:64", "--format", "json"],
        ["embed", str(path)],
    ]
    runs = {}
    for mode in ("open", "blocked"):
        runs[mode] = json.loads(subprocess.run(
            [sys.executable, "-c", NO_NETWORKX_PROGRAM, mode, json.dumps(calls)],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout)
    assert runs["open"][0] is False
    assert runs["blocked"][1] == runs["open"][1]
    (s3, z900, verify, export, embed) = runs["blocked"][1]
    assert [rc for rc, _ in runs["blocked"][1]] == [0] * 5
    assert "rotation" in json.loads(s3[1])["planarity"]
    assert json.loads(z900[1])["planarity"]["witness"]["kind"] in ("K5", "K33")
    summary = json.loads(verify[1])["summary"]
    assert (summary["failed"], summary["skipped_entries"]) == (0, [])
    assert json.loads(export[1])["parent_order"] == 128
    assert json.loads(embed[1])["modulus"] > 1
