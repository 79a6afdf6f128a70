#!/usr/bin/env python3
"""The statements of ``src/bayeshead`` that a representative run never executes.

    python3 tools/traffic.py

Under the standard library's ``sys.settrace`` line tracer it imports the
package and runs the README's end-to-end CLI pipeline, a 2-seed 3-epoch
``study``, and one set-up and one round of each workload in
``perfbench/workloads.py``. It then prints, per module, each statement that
none of these ran, by line number and first source line, and a total.

A statement owns the lines that carry its own bytecode: a compound
statement's header, never its body, and a definition's decorators and
``def`` line. A statement counts as run when any line it owns ran.
Only frames of ``src/bayeshead`` are traced line by line; a run takes 6-8 s
on a 2-core x86-64 box, and it stays out of the test suite. Exit
status: 0, or 1 when a command or a workload operation fails.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import shlex
import sys
import tempfile
import threading
import types
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bayeshead"
STUDY = ["study", "--seeds", "2", "--epochs", "3"]


def readme_pipeline() -> list[list[str]]:
    """The argument lists of the ``bayeshead`` commands in README's end-to-end example."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("End-to-end example:", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("bayeshead ")]
    if not commands:
        raise SystemExit("error: README.md has no end-to-end example")
    return commands


def _code_objects(code: types.CodeType):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def statements(path: Path) -> dict[int, tuple[str, set[int]]]:
    """Each statement with bytecode of its own, keyed by its first line: (first source line, lines it owns)."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    nodes = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.stmt)]
    spans = [(min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", []))]), node.end_lineno)
             for node in nodes]
    owned: dict[int, tuple[str, set[int]]] = {}
    code_lines = {line for code in _code_objects(compile(source, str(path), "exec"))
                  for _, _, line in code.co_lines() if line}  # line 0 and None carry no statement
    for line in sorted(code_lines):
        # the innermost statement holding the line: the latest start, then the shortest span
        start = max((span for span in spans if span[0] <= line <= span[1]), key=lambda s: (s[0], -s[1]))[0]
        owned.setdefault(start, (lines[start - 1].strip(), set()))[1].add(line)
    return owned


def _tracer(paths: list[Path]):
    """(trace function, {module file name: lines run}); only frames of ``paths`` are traced line by line."""
    hits = {path.name: set() for path in paths}

    def local_for(lines: set):
        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    locals_by_file = {str(path): local_for(hits[path.name]) for path in paths}

    def on_call(frame, event, arg):
        return locals_by_file.get(frame.f_code.co_filename)

    return on_call, hits


def run_everything(work: Path) -> list[str]:
    """Run the README pipeline, the study and each workload's set-up and round in ``work``; the failures."""
    from bayeshead import cli

    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads as wl

    failures = []
    previous = Path.cwd()
    os.chdir(work)
    try:
        for argv in [*readme_pipeline(), [*STUDY, "--out", "study"]]:
            if cli.run(argv) != 0:
                failures.append(f"bayeshead {shlex.join(argv)} failed")
    finally:
        os.chdir(previous)
    for name, workload in wl.WORKLOADS.items():
        ledger = wl.Ledger()
        ctx = workload.setup(0, work / name, ledger, {})
        workload.round(ctx, ledger, defaultdict(list), "traffic")
        failures += ledger.errors
    return failures


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    paths = sorted(PACKAGE.glob("*.py"))
    trace, hits = _tracer(paths)
    printed = io.StringIO()
    with tempfile.TemporaryDirectory() as work, \
            contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
        threading.settrace(trace)
        sys.settrace(trace)
        try:
            import bayeshead  # traced too, so module-level statements count as run

            failures = run_everything(Path(work))
        finally:
            sys.settrace(None)
            threading.settrace(None)
    if Path(bayeshead.__file__).resolve().parent != PACKAGE:
        print(f"error: imported bayeshead from {bayeshead.__file__}, not {PACKAGE}", file=sys.stderr)
        return 1

    total = missed = 0
    for path in paths:
        owned = statements(path)
        unrun = [(start, text) for start, (text, lines) in owned.items() if not lines & hits[path.name]]
        total, missed = total + len(owned), missed + len(unrun)
        print(f"{path.name}: {len(unrun)} of {len(owned)} statements not run")
        for start, text in sorted(unrun):
            print(f"  {start:4d}  {text}")
    print(f"total: {missed} of {total} statements of src/bayeshead not run")
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
