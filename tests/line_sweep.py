"""Line sweep: every executable line of src/qheis is reached by tier-1, or listed.

    python tests/line_sweep.py

A sys.settrace collector limited to src/qheis starts before anything imports
qheis; tier-1 then runs in-process through pytest.main.  The executable lines
of each module are those of its code objects' co_lines().  The script prints
every unreached line that no ALLOWED entry covers, and every ALLOWED entry that
tier-1 reaches after all, and then exits 1; it exits with pytest's status when
tier-1 fails, and 0 otherwise.  The collector does not follow subprocesses, so
what only the subprocess tests run is listed in ALLOWED with its reason.
pytest does not collect this file.  Under the collector tier-1 takes about
three times as long as without it.
"""

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qheis"

# (module, header line of a block, reason).  An entry covers the body of a
# def or an if, whose header runs when the enclosing code does, and the whole
# of an except clause, whose header runs only when an exception reaches it.
ALLOWED = [
    ("cli.py", "def main(argv=None) -> int:",
     "the console entry point and its BrokenPipeError path: the tests run it "
     "only in a subprocess, as `python -m qheis.cli`"),
    ("cli.py", "except MemoryError:",
     "exit 4 on running out of memory: only the subprocess tests, under a "
     "memory limit, run out of it"),
    ("cli.py", 'if __name__ == "__main__":',
     "`python -m qheis.cli`: only the subprocess tests run the module as a script"),
]


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from _code_objects(const)


def _own_lines(code):
    # a code object's first line belongs to the code that defines it (the def,
    # the decorator or the class line), which reaches it there
    return {line for *_, line in code.co_lines() if line} - {code.co_firstlineno}


class Collector:
    """Per code object under SRC, its lines not yet reached.  A frame stops
    being traced once its code has no line left."""

    def __init__(self):
        self.prefix = str(SRC) + os.sep
        self.todo = {}      # code -> unreached own lines, or None outside SRC
        self.lines = {}     # code -> own lines, for the codes under SRC

    def call(self, frame, event, arg):
        code = frame.f_code
        try:
            rem = self.todo[code]
        except KeyError:
            rem = None
            if code.co_filename.startswith(self.prefix):
                self.lines[code] = _own_lines(code)
                rem = set(self.lines[code])
            self.todo[code] = rem
        if not rem:
            return None

        def line(frame, event, arg):
            if event == "line":
                rem.discard(frame.f_lineno)
            return line if rem else None
        return line

    def reached(self):
        out = {}
        for code, own in self.lines.items():
            out.setdefault(code.co_filename, set()).update(own - self.todo[code])
        return out


def _executable(path):
    code = compile(path.read_text(), str(path), "exec")
    return set().union(*map(_own_lines, _code_objects(code)))


def _allowed_lines(path, header):
    # the lines of the one block of path whose first line is header
    source = path.read_text()
    tree, text = ast.parse(source), source.splitlines()
    blocks = [node for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.If, ast.ExceptHandler))
              and text[node.lineno - 1].strip() == header]
    if len(blocks) != 1:
        raise SystemExit(f"{path.name}: {len(blocks)} blocks start with {header!r}")
    node, = blocks
    start = node.lineno if isinstance(node, ast.ExceptHandler) else node.body[0].lineno
    return set(range(start, node.end_lineno + 1))


def main():
    collector = Collector()
    threading.settrace(collector.call)
    sys.settrace(collector.call)
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import pytest
    status = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"])
    sys.settrace(None)
    threading.settrace(None)
    imported = Path(sys.modules["qheis"].__file__).resolve().parent
    if imported != SRC:
        print(f"tier-1 imported qheis from {imported}, not {SRC}")
        return 1
    reached = collector.reached()
    bad = 0
    allowed = {}
    for name, header, reason in ALLOWED:
        lines = _allowed_lines(SRC / name, header)
        allowed.setdefault(name, set()).update(lines)
        if lines & reached.get(str(SRC / name), set()):
            bad += 1
            print(f"allowed but reached: src/qheis/{name}: {header} ({reason})")
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text().splitlines()
        missed = _executable(path) - reached.get(str(path), set()) - allowed.get(path.name, set())
        for line in sorted(missed):
            bad += 1
            print(f"unreached: src/qheis/{path.name}:{line}: {text[line - 1].strip()}")
    print(f"line sweep: {bad} unreached line(s) or reached allowlist entries")
    if status:
        return int(status)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
