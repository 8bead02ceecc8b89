"""Fuzzing the CLI contract: every document ends in a documented exit code.

Each example takes the valid request of one subcommand and changes one or
two positions of its document, the whole document included: it puts small
random JSON there, or deletes the key or list entry.  `cli.main` must return
0, 1, 2 or 3, and no exception may escape it.  The runs are derandomized, so
a failure repeats on every run.
"""
import contextlib
import io
import json
import sys

import pytest
from hypothesis import given, settings, strategies as st

import support
from metricat.cli import main

DOCUMENTS = support.cli_documents()

# keys the parsers read, so that random objects sometimes reach past them
KEYS = [
    "category", "weights", "objects", "arrows", "identities", "compose", "id", "dom", "cod",
    "label", "generators", "list", "constantFrom", "source", "target", "functor", "objMap",
    "arrMap", "space", "start", "contraction", "direction", "base", "sequence", "series",
    "cone", "apex", "startIndex", "legs", "period", "preperiod", "entries", "x", "y",
    "points", "d", "n", "a1", "a2", "h", "0", "1", "2", "0,1", "1,0",
]
SCALARS = (
    st.none() | st.booleans() | st.integers(-2, 6) | st.floats(-3, 3, allow_nan=False)
    | st.sampled_from(["1/2", "3/0", "inf", "-1", "x", "", "forward", "backward", "0,1"])
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(KEYS), inner, max_size=3),
    max_leaves=8,
)


def positions(doc, path=()):
    """Every position in a JSON document, the root first."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from positions(value, path + (key,))


def run(argv, text):
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main(argv)
    finally:
        sys.stdin = saved


@pytest.mark.parametrize("command", sorted(DOCUMENTS))
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_document_ends_in_a_documented_exit_code(command, data):
    argv, document = DOCUMENTS[command]
    for _ in range(data.draw(st.integers(1, 2), label="changes")):
        path = data.draw(st.sampled_from(list(positions(document))), label="path")
        value = data.draw(VALUES | st.just(support.DELETE) if path else VALUES, label="value")
        document = support.replaced(document, path, value)
    fmt = data.draw(st.sampled_from([[], ["--format", "json"]]), label="format")
    assert run(fmt + argv, json.dumps(document)) in {0, 1, 2, 3}
