"""The CLI's JSON writer against the stdlib encoder it replaced: the same
text on arbitrary JSON trees and on every command's output, TypeError
outside its domain, and no cyclic garbage left behind."""

import gc
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build
from liedual import chevalley, cli, tduality
from oracles import stdlib_emit

SPECIAL_TEXT = ["", '"', "\\", "\x00", "\x1f", "\x7f", "\b\f\n\r\t", " ", "é", "\ud800", "\udfff",
                "\u2028", "😀", '"\\/\ud800é']
SPECIAL_FLOATS = [0.0, -0.0, 1e16, -1e16, 5e-324, 1.7976931348623157e308, 0.1, math.nan, math.inf, -math.inf]

text = st.one_of(st.sampled_from(SPECIAL_TEXT), st.text(st.characters(exclude_categories=()), max_size=8))
leaves = st.one_of(
    text,
    st.integers(),
    st.integers(-(1 << 200), 1 << 200),
    st.booleans(),
    st.none(),
    st.floats(),
    st.sampled_from(SPECIAL_FLOATS),
)
json_trees = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(text, children, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None, database=None)
@given(obj=json_trees)
def test_the_writer_matches_the_stdlib(obj):
    assert cli._dumps(obj) == stdlib_emit(obj)


@pytest.mark.parametrize("obj", [{}, [], (), [{}, [], ()], {"a": {}, "b": []}, -0.0, math.nan, "\ud800", 10 ** 40])
def test_empty_containers_and_bare_leaves_match_the_stdlib(obj):
    assert cli._dumps(obj) == stdlib_emit(obj)


def test_the_property_fails_on_a_writer_that_keeps_insertion_order(monkeypatch):
    # The writer itself with its key sort replaced by the dict's own order.
    monkeypatch.setattr(cli, "sorted", list, raising=False)
    with pytest.raises(AssertionError):
        test_the_writer_matches_the_stdlib()


def test_the_property_fails_on_a_writer_that_indents_by_4(monkeypatch):
    monkeypatch.setattr(cli, "_dumps", lambda obj: json.dumps(obj, indent=4, sort_keys=True))
    with pytest.raises(AssertionError):
        test_the_writer_matches_the_stdlib()


@pytest.mark.parametrize("obj", [Fraction(1, 2), [Fraction(1, 2)], {1, 2}, {"a": {1}}, {1: "a"}, [{"a": 0, 2: 1}]],
                         ids=["fraction", "fraction-leaf", "set", "set-value", "int-key", "mixed-keys"])
def test_the_writer_raises_type_error_outside_its_domain(obj):
    # The stdlib would write an int key as a string; no command emits one.
    with pytest.raises(TypeError):
        cli._dumps(obj)


TYPES = ["A2:sc", "B3:adj", "G2", "A1xT1:sc", "T2", "D4:adj", "E6:sc"]
ARGVS = [["info"], ["cartan"], ["dualize"], ["export-algebra"], ["verify"], ["verify", "--no-timing"],
         ["verify", "--scale", "2", "--scale", "-1"]]


@pytest.mark.parametrize("typ", TYPES)
@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_every_command_writes_the_stdlib_text(capsys, monkeypatch, tmp_path, typ, argv):
    # The object each run emits is caught on its way to the writer; verify
    # with timing emits floats, which differ from run to run.
    emitted = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda obj, out_path=None: (emitted.append(obj), emit(obj, out_path)))
    out_file = tmp_path / "out.json"
    for extra in ([], ["--out", str(out_file)]):
        code = cli.main([*argv, "--type", typ, *extra])
        out = capsys.readouterr().out
        assert code in (0, 1)
        written = out_file.read_bytes().decode("ascii") if extra else out
        assert written == stdlib_emit(emitted[-1]) + "\n"
        assert not extra or out == ""
    assert len(emitted) == 2


def test_the_writer_leaves_no_cyclic_garbage(capsys):
    report = tduality.verify_all(build("E6:sc")).as_dict(timing=True)
    L = chevalley.build_lie_algebra(build("A5:sc"))
    dump = chevalley.structure_constant_dump(L)
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        cli._emit(report)
        cli._emit(dump)
        assert gc.collect() == 0
        # The control: the stdlib's indenting encoder leaves reference cycles.
        stdlib_emit(report)
        assert gc.collect() > 0
    finally:
        if enabled:
            gc.enable()
    assert capsys.readouterr().out == stdlib_emit(report) + "\n" + stdlib_emit(dump) + "\n"
