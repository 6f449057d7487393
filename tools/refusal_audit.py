"""Refusal audit: replace each ``raise`` in ``src/`` by ``pass``, one at a
time in a scratch copy of the repository, and run the tests without the slow
ones. A mutant survives when every test passes; survivors print as
``file:line`` of the unmutated source, and the exit status is 1 if any.

    python3 tools/refusal_audit.py [REPO]      # REPO defaults to this checkout
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def mutate(source: str, node: ast.Raise) -> str:
    """``source`` with ``node`` replaced by ``pass``, keeping every line number."""
    lines = source.splitlines(keepends=True)
    first, last = node.lineno - 1, node.end_lineno - 1
    head = lines[first].encode()[:node.col_offset].decode()
    tail = lines[last].encode()[node.end_col_offset:].decode()
    return "".join(lines[:first] + [head + "pass" + tail] + ["\n"] * (last - first)
                   + lines[last + 1:])


def pytest(work: Path, *args: str) -> int:
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-m", "not slow", "-p", "no:cacheprovider",
         *args], cwd=work, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main(repo: Path) -> int:
    survivors, total = [], 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "repo"
        shutil.copytree(repo, work, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", "*.egg-info", ".perfbench_work"))
        # the unmutated tests must pass; their files then run fastest first,
        # so that most mutants fail within seconds
        cost = {}
        for test_file in sorted(str(p) for p in (work / "tests").glob("test_*.py")):
            start = time.perf_counter()
            if pytest(work, test_file):
                sys.exit(f"{test_file} fails on the unmutated source")
            cost[test_file] = time.perf_counter() - start
        for path in sorted((work / "src").rglob("*.py")):
            source = path.read_text()
            for node in sorted((n for n in ast.walk(ast.parse(source))
                                if isinstance(n, ast.Raise)), key=lambda n: n.lineno):
                total += 1
                path.write_text(mutate(source, node))
                if pytest(work, "-x", *sorted(cost, key=cost.get)) == 0:
                    survivors.append(f"{path.relative_to(work)}:{node.lineno}  "
                                     f"{ast.get_source_segment(source, node)}")
                    print("survived", survivors[-1], flush=True)
            path.write_text(source)
    print(f"{len(survivors)} of {total} mutants survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).parent.parent)))
