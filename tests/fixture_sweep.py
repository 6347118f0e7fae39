"""Fixture-mutation sweep: every command that reads a fixture's kind, run
on every one-node mutant of every fixture in ``tests/fixtures``.

Each node of a fixture's document is deleted, or replaced by one of
``VALUES``; only the first two items of a list are visited.  The mutant is
written with ``yaml.safe_dump`` and given to ``validate`` and then to each
command that reads the fixture's kind (``COMMANDS``), through
``tensorgp.cli.main`` in this process.  Each run prints one line, tab
separated: the fixture, the node, the mutation, the command, the exit code
and the JSON-quoted standard error, with the temporary directory written
as ``<tmp>``.  Two sweeps of the same code print the same text, so two
revisions compare with ``diff``.

The sweep exits 1 when a run raises, or when ``validate`` exits 1: bad
input must exit 2, and ``validate`` decides no condition.  It takes about
two minutes.  Run it from the repository root:

    PYTHONPATH=src python tests/fixture_sweep.py > sweep.txt
"""

from __future__ import annotations

import copy
import io
import json
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import yaml

from tensorgp.cli import main

FIXTURES = Path(__file__).parent / "fixtures"

# what replaces a node; deletion is the first mutation
VALUES = (None, 5, -1, True, "x", [], {}, [5], 1.5)

# the commands that read each kind, after validate; <out> is an output path
COMMANDS = {
    "bundle": (["hunt", "--max-rank", "1"],),
    "window": (["check", "--mode", "both"], ["strong"],
               ["extract-gp", "--k", "0", "--allow-window-local"]),
    "trivext": (["specialize"],),
    "morita": (["specialize"],),
    "triangular": (["specialize"],),
    "complex": (["compat"], ["lift", "--output", "<out>"]),
}

_DELETE = object()


def nodes(node, at=()):
    """The paths of every node below ``node``, parents first; a list
    contributes its first two items."""
    items = node.items() if isinstance(node, dict) else enumerate(node[:2])
    for key, value in items:
        yield at + (key,)
        if isinstance(value, (dict, list)):
            yield from nodes(value, at + (key,))


def label(at) -> str:
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in at).lstrip(".")


def mutant(doc, at, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in at[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[at[-1]]
    else:
        parent[at[-1]] = value
    return doc


def run(argv) -> tuple:
    """The exit code and standard error of one command; the code is
    ``raised <type>`` when the command raised, and the traceback goes to
    the sweep's own standard error."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:  # a run that raises is what the sweep looks for
            code = f"raised {type(exc).__name__}"
            traceback.print_exc(file=sys.__stderr__)
    return code, err.getvalue()


def sweep(tmp: Path, out=sys.stdout) -> bool:
    """Print one line per run; True when no run raised and no validate
    run exited 1."""
    clean = True
    path = tmp / "mutant.yaml"
    for fixture in sorted(FIXTURES.glob("*.yaml")):
        doc = yaml.safe_load(fixture.read_text())
        commands = COMMANDS[doc["kind"]]
        for at in nodes(doc):
            for value in (_DELETE, *VALUES):
                path.write_text(yaml.safe_dump(mutant(doc, at, value)))
                for command in (["validate"], *commands):
                    argv = [command[0], str(path)] + [
                        str(tmp / "out.yaml") if a == "<out>" else a for a in command[1:]]
                    code, err = run(argv)
                    clean &= not (isinstance(code, str) or (command == ["validate"] and code == 1))
                    mutation = "delete" if value is _DELETE else repr(value)
                    print(fixture.name, label(at), mutation, " ".join(command), code,
                          json.dumps(err.replace(str(tmp), "<tmp>")), sep="\t", file=out)
    return clean


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        sys.exit(0 if sweep(Path(tmp)) else 1)
