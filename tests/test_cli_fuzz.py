"""Fuzz the command line with mutated copies of shipped bundle objects.

Each example takes one bundle object of a kind drawn from `cli.KINDS`,
together with everything it references.  It may give one field a value its
parser must refuse, then drops keys or list items and swaps in values from a
small pool, and runs `validate` or `report` on the result.  Whatever the
document, the tool must answer with exit 0 (valid), 1 (invalid) or 2 (error)
and never raise.
"""

import contextlib
import copy
import io
import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from lieop import cli
from lieop.fixtures import bundle

OBJECTS = bundle()["objects"]
BY_KIND = {kind: sorted(n for n, raw in OBJECTS.items() if raw["kind"] == kind)
           for kind in cli.KINDS}

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

# values each field's parser must refuse: booleans, negatives and strings for
# counts, non-strings for references and kinds, and indices that are booleans,
# negative, strings or past every bundle dim
WRONG = {
    cli.count: st.sampled_from([True, False, -1, "2"]),
    cli.ref: st.sampled_from([["aff1"], {"aff1": 1}, 0, None, True]),
    "kind": st.sampled_from([["lie_algebra"], {"lie_algebra": 1}, 0, None, True]),
}
WRONG_INDEX = st.sampled_from([True, False, -1, 8, "0"])


def closure(name):
    """The named object and every object it references, deep-copied."""
    out = {}
    stack = [name]
    while stack:
        n = stack.pop()
        if n not in out:
            out[n] = copy.deepcopy(OBJECTS[n])
            stack.extend(out[n][f.key] for f in cli.KINDS[out[n]["kind"]]
                         if f.parse is cli.ref and f.key in out[n])
    return out


def mistype(data, doc):
    """Give one object's kind, count, reference or sparse index a wrong value."""
    raw = doc["objects"][data.draw(st.sampled_from(sorted(doc["objects"])))]
    parse = {f.key: f.parse for f in cli.KINDS[raw["kind"]]
             if f.parse in WRONG or f.parse in cli.SPARSE and raw.get(f.key)}
    parse["kind"] = "kind"
    key = data.draw(st.sampled_from(sorted(parse)))
    if parse[key] in WRONG:
        # a copy, since later mutations may edit the drawn list or map in place
        raw[key] = copy.deepcopy(data.draw(WRONG[parse[key]]))
        return
    item = data.draw(st.sampled_from(raw[key]))
    where = item[0] if parse[key] is cli.values else item  # the index tuple, or [i, j, c]
    slots = len(where) if parse[key] is cli.values else 2
    where[data.draw(st.integers(0, slots - 1))] = data.draw(WRONG_INDEX)


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


def test_every_kind_has_a_bundle_object():
    assert [kind for kind, names in BY_KIND.items() if not names] == []


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_bundle_closures_never_crash_the_cli(data):
    # kinds first, so the few objects of a rare kind are drawn as often as the rest
    kind = data.draw(st.sampled_from(sorted(cli.KINDS)))
    doc = {"objects": closure(data.draw(st.sampled_from(BY_KIND[kind])))}
    mistyped = data.draw(st.booleans())
    if mistyped:
        mistype(data, doc)
    for _ in range(data.draw(st.integers(0 if mistyped else 1, 3))):
        mutate(data, doc)
    command = data.draw(st.sampled_from(["validate", "report"]))
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([command, "--input", path])
    finally:
        os.remove(path)
    assert code in (0, 1, 2), (command, doc)
