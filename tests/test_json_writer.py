"""The CLI's JSON writer against the stdlib encoder it replaced: the same
text on arbitrary JSON trees and on every command's output (export-algebra's
against the object of tests/oracles.py, since it writes its text straight
from the table), TypeError outside its domain, and no cyclic garbage left
behind."""

import gc
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build
from liedual import chevalley, cli, tduality
from oracles import export_algebra_object, stdlib_emit

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
    # with timing emits floats, which differ from run to run.  export-algebra
    # emits no object: its text must be the oracle object's.
    emitted = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda obj, out_path=None: (emitted.append(obj), emit(obj, out_path)))
    export = argv == ["export-algebra"]
    out_file = tmp_path / "out.json"
    for extra in ([], ["--out", str(out_file)]):
        code = cli.main([*argv, "--type", typ, *extra])
        out = capsys.readouterr().out
        assert code in (0, 1)
        written = out_file.read_bytes().decode("ascii") if extra else out
        obj = export_algebra_object(chevalley.build_lie_algebra(build(typ))) if export else emitted[-1]
        assert written == stdlib_emit(obj) + "\n"
        assert not extra or out == ""
    assert len(emitted) == (0 if export else 2)


@pytest.mark.parametrize("typ", ["T0", "T1", "A1:sc", "A2:sc x A1:adj x T1", "A3xT2:sc", "B3:adj", "G2xT1", "E8:sc"])
def test_export_algebra_writes_the_stdlib_text_of_the_oracle_dump(capsys, typ):
    # The text is laid out from the table itself: no bracket (T0, T1), a
    # radical before the Cartan block, and 248 basis names.
    L = chevalley.build_lie_algebra(build(typ))
    assert cli.main(["export-algebra", "--type", typ]) == 0
    assert capsys.readouterr().out == stdlib_emit(export_algebra_object(L)) + "\n"


def test_the_writer_leaves_no_cyclic_garbage(capsys):
    report = tduality.verify_all(build("E6:sc")).as_dict(timing=True)
    L = chevalley.build_lie_algebra(build("A5:sc"))
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        cli._emit(report)
        cli._write(cli._algebra_text(L), None)
        assert gc.collect() == 0
        # The control: the stdlib's indenting encoder leaves reference cycles.
        stdlib_emit(report)
        assert gc.collect() > 0
    finally:
        if enabled:
            gc.enable()
    assert capsys.readouterr().out == stdlib_emit(report) + "\n" + stdlib_emit(export_algebra_object(L)) + "\n"
