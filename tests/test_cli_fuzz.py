"""Fuzz the command line with mutated copies of shipped bundle objects.

Each example takes one bundle object together with everything it references,
drops keys or list items and swaps in values from a small pool, and runs
`validate` or `report` on the result.  Whatever the document, the tool must
answer with exit 0 (valid), 1 (invalid) or 2 (error) and never raise.
"""

import contextlib
import copy
import io
import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from lieop.cli import main
from lieop.fixtures import bundle

OBJECTS = bundle()["objects"]
BY_KIND = {}
for _name, _raw in sorted(OBJECTS.items()):
    BY_KIND.setdefault(_raw["kind"], []).append(_name)
REF_KEYS = ("algebra_ref", "rep_ref", "total_ref", "twilled_ref")

# integers stay small, so a swapped-in dim or index keeps every object tiny
POOL = st.one_of(
    st.integers(-5, 8),
    st.sampled_from(["", "x", "1/0", "-1/2", "ab2", "aff1_adj", "lie_algebra",
                     "representation", "o_operator"]),
    st.none(),
    st.booleans(),
    st.floats(min_value=-4, max_value=4),
    st.lists(st.one_of(st.integers(-1, 2), st.sampled_from(["0", "1", "1/2"])),
             max_size=3),
)


def closure(name):
    """The named object and every object it references, deep-copied."""
    out = {}
    stack = [name]
    while stack:
        n = stack.pop()
        if n not in out:
            out[n] = copy.deepcopy(OBJECTS[n])
            stack.extend(out[n][k] for k in REF_KEYS if k in out[n])
    return out


def mutate(data, doc):
    """Walk down from the objects map to one key or item; drop it or replace it."""
    node = doc["objects"]
    while True:
        keys = sorted(node) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            return
        k = data.draw(st.sampled_from(keys))
        child = node[k]
        if isinstance(child, (dict, list)) and child and data.draw(st.booleans()):
            node = child
            continue
        if data.draw(st.booleans()):
            del node[k]
        else:
            node[k] = data.draw(POOL)
        return


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_bundle_closures_never_crash_the_cli(data):
    # kinds first, so the few objects of a rare kind are drawn as often as the rest
    kind = data.draw(st.sampled_from(sorted(BY_KIND)))
    doc = {"objects": closure(data.draw(st.sampled_from(BY_KIND[kind])))}
    for _ in range(data.draw(st.integers(1, 3))):
        mutate(data, doc)
    command = data.draw(st.sampled_from(["validate", "report"]))
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--input", path])
    finally:
        os.remove(path)
    assert code in (0, 1, 2), (command, doc)
