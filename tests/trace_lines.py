"""Print the function-body lines of ``src/icgram`` that the test suite never runs.

    PYTHONPATH=src python tests/trace_lines.py [pytest arguments]

Runs pytest in this process (by default on ``tests/``) with a
``sys.settrace`` hook, installed again before each test because a test or a
library may replace it, that records each line run in ``src/icgram``.  A
body line is the first line of a statement, or of an ``except`` clause, in a
function or method, docstrings left out; a nested function's body is its
own.  Module and class bodies run at import, before any test, so they are
not counted, and neither is anything that a test runs in a subprocess (the
goldens, the demos, the bench self-test).  The tracer slows the suite about
sixfold, and a test that bounds its own wall time may fail under it; the
count is printed all the same.  No dependency beyond pytest.

The file is not named ``test_*.py``, so a plain pytest run does not collect
it.
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "icgram"


def body_lines(path: Path) -> dict[str, set[int]]:
    """``{qualified function name: its body lines}`` for one source file."""
    out: dict[str, set[int]] = {}
    todo = [(node, "") for node in ast.parse(path.read_text()).body]
    while todo:
        node, prefix = todo.pop()
        if isinstance(node, ast.ClassDef):
            todo += [(child, f"{prefix}{node.name}.") for child in node.body]
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        name, body = f"{prefix}{node.name}", list(node.body)
        if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                and isinstance(body[0].value.value, str):
            body = body[1:]
        lines = out.setdefault(name, set())
        while body:
            stmt = body.pop()
            if not isinstance(stmt, (ast.Global, ast.Nonlocal)):
                lines.add(stmt.lineno)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                todo.append((stmt, f"{name}."))
                continue
            body += [child for child in ast.iter_child_nodes(stmt)
                     if isinstance(child, (ast.stmt, ast.excepthandler))
                     or type(child).__name__ == "match_case"]
    return out


class LineTracer:
    """A pytest plugin that records ``(file, line)`` for each line run in
    the package."""

    def __init__(self):
        self.ours: dict[str, bool] = {}  # per file name as the code has it
        self.hits: set[tuple[str, int]] = set()

    def _call(self, frame, event, arg):
        name = frame.f_code.co_filename
        if name not in self.ours:
            self.ours[name] = Path(name).resolve().parent == PACKAGE
        return self._line if self.ours[name] else None

    def _line(self, frame, event, arg):
        if event == "line":
            self.hits.add((frame.f_code.co_filename, frame.f_lineno))
        return self._line

    def install(self):
        sys.settrace(self._call)
        threading.settrace(self._call)

    def pytest_runtest_setup(self, item):
        self.install()

    def pytest_runtest_call(self, item):
        self.install()


def main(argv: list[str]) -> int:
    tracer = LineTracer()
    tracer.install()
    code = pytest.main(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")],
                       plugins=[tracer])
    sys.settrace(None)
    threading.settrace(None)
    hits = {(Path(name).resolve(), n) for name, n in tracer.hits}
    missed = total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        for name, lines in sorted(body_lines(path).items()):
            never = sorted(n for n in lines if (path, n) not in hits)
            total += len(lines)
            missed += len(never)
            if never:
                print(f"{path.name}:{name}: {' '.join(map(str, never))}")
    print(f"never run: {missed} of {total} function-body lines (pytest exit {code})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
