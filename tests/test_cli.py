import argparse
import contextlib
import hashlib
import io
import json
import re
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from liedual import cli, rootdatum


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info_a1(capsys):
    code, out, _ = run(capsys, "info", "--type", "A1:sc")
    obj = json.loads(out)
    assert code == 0
    assert obj["rank"] == 1 and obj["roots"] == 2 and obj["ade"] is True and obj["pi1"] == []


def test_info_b3_not_ade(capsys):
    code, out, _ = run(capsys, "info", "--type", "B3:sc")
    assert code == 0 and json.loads(out)["ade"] is False


def test_info_torus(capsys):
    code, out, _ = run(capsys, "info", "--type", "T2")
    obj = json.loads(out)
    assert obj["rank"] == 2 and obj["roots"] == 0 and obj["ade"] is True


def test_info_rejects_bad_descriptor(capsys):
    code, _, err = run(capsys, "info", "--type", "Z9")
    assert code == 2 and "error" in err


@pytest.mark.parametrize("typ", ["A2xT1:adj", "T1:adj", "T2:adj x A1"])
def test_a_torus_factor_with_adj_exits_2(capsys, typ):
    # The tag binds to the torus, which has no isogeny: A2xT1:adj once
    # built A2:sc x T1 silently.
    code, out, err = run(capsys, "info", "--type", typ)
    assert (code, out) == (2, "") and "takes no :adj" in err and "A2:adjxT1" in err


def test_the_adjoint_tag_on_the_semisimple_factor_and_sc_on_a_torus_still_build(capsys):
    code, out, _ = run(capsys, "info", "--type", "A2:adjxT1")
    assert code == 0 and json.loads(out)["pi1"] == [3]
    code, out, _ = run(capsys, "info", "--type", "A1xT1:sc")
    obj = json.loads(out)
    assert code == 0 and (obj["type"], obj["pi1"], obj["label"]) == ("A1 x T1", [], "A1:sc x T1")
    assert out == run(capsys, "info", "--type", "A1:scxT1")[1]


def test_cartan(capsys):
    code, out, _ = run(capsys, "cartan", "--type", "A2:sc")
    assert code == 0
    assert json.loads(out) == [["2/1", "-1/1"], ["-1/1", "2/1"]]


def test_dualize_round_trip(capsys, tmp_path):
    out_file = tmp_path / "dual.json"
    code, _, _ = run(capsys, "dualize", "--type", "A1:sc", "--out", str(out_file))
    assert code == 0
    code, out, _ = run(capsys, "info", "--input", str(out_file))
    assert code == 0
    obj = json.loads(out)
    assert obj["pi1"] == [2]  # the adjoint form: SO(3)

    code, _, _ = run(capsys, "dualize", "--input", str(out_file), "--out", str(out_file))
    assert code == 0
    back = rootdatum.from_json(out_file.read_text())
    orig = rootdatum.build_from_dynkin(rootdatum.parse_descriptor("A1:sc"))
    assert rootdatum.to_json(back) == rootdatum.to_json(orig)


def test_dualize_b3_gives_c3(capsys):
    code, out, _ = run(capsys, "dualize", "--type", "B3:sc")
    assert code == 0
    assert rootdatum.classify_label(rootdatum.from_json(out)) == "C3"


def test_dualize_torus_is_fixed(capsys):
    code, out, _ = run(capsys, "dualize", "--type", "T1")
    assert code == 0 and json.loads(out)["rank"] == 1


def test_verify_pass_and_fail_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--type", "D4:sc", "--no-timing")
    assert code == 0 and json.loads(out)["overall"] is True
    code, out, _ = run(capsys, "verify", "--type", "B2:sc", "--no-timing")
    obj = json.loads(out)
    assert code == 1 and obj["overall"] is False
    assert obj["checks"][0]["name"] == "ade_symmetry" and obj["checks"][0]["witness"]


def test_verify_scale_flag(capsys):
    code, out, _ = run(capsys, "verify", "--type", "A1:sc", "--scale", "3", "--no-timing")
    obj = json.loads(out)
    assert code == 0 and obj["scaled_n"] == [3]
    assert any(c["name"] == "flux_equation[scale=3]" for c in obj["checks"])


def test_verify_accepts_rank_above_six(capsys):
    code, out, _ = run(capsys, "verify", "--type", "A7:sc", "--no-timing")
    assert code == 0 and json.loads(out)["overall"] is True


def test_verify_output_is_deterministic(capsys):
    _, out1, _ = run(capsys, "verify", "--type", "A2:sc", "--no-timing")
    _, out2, _ = run(capsys, "verify", "--type", "A2:sc", "--no-timing")
    assert out1 == out2


def test_export_algebra(capsys):
    code, out, _ = run(capsys, "export-algebra", "--type", "A1:sc")
    obj = json.loads(out)
    assert code == 0 and obj["dim"] == 3
    assert {"h0", "x0", "x1"} <= set(obj["basis"])
    assert obj["pairs"]


def test_input_file_with_invalid_datum(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"rank": 1, "roots": [[2]], "coroots": [[3]]}))
    code, _, err = run(capsys, "info", "--input", str(bad))
    assert code == 2 and "axioms" in err


# Four data that between them fail every axiom, with the report each gets
# and the error line `info --input` writes for it.  The reports are compared
# by repr, which tells a witness 0 from False.
AXIOM_FAILURES = {
    "A1 and a zero root": (
        {"rank": 1, "roots": [[2], [-2], [0]], "coroots": [[1], [-1], [1]]},
        {"pairing_two": False, "reflection": True, "reduced": True, "nonzero": False,
         "witnesses": {"pairing_two": 2, "reflection": None, "reduced": None, "nonzero": 2}},
        '{"nonzero": false, "pairing_two": false, "reduced": true, "reflection": true, '
        '"witnesses": {"nonzero": 2, "pairing_two": 2, "reduced": null, "reflection": null}}',
    ),
    "pairing one": (  # the census input pairing_one.json
        {"rank": 1, "roots": [[1], [-1]], "coroots": [[1], [-1]]},
        {"pairing_two": False, "reflection": False, "reduced": True, "nonzero": True,
         "witnesses": {"pairing_two": 0, "reflection": (0, 0), "reduced": None, "nonzero": None}},
        '{"nonzero": true, "pairing_two": false, "reduced": true, "reflection": false, '
        '"witnesses": {"nonzero": null, "pairing_two": 0, "reduced": null, "reflection": [0, 0]}}',
    ),
    "A1 without its negative root": (
        {"rank": 1, "roots": [[2]], "coroots": [[1]]},
        {"pairing_two": True, "reflection": False, "reduced": True, "nonzero": True,
         "witnesses": {"pairing_two": None, "reflection": (0, 0), "reduced": None, "nonzero": None}},
        '{"nonzero": true, "pairing_two": true, "reduced": true, "reflection": false, '
        '"witnesses": {"nonzero": null, "pairing_two": null, "reduced": null, "reflection": [0, 0]}}',
    ),
    "BC1": (
        {"rank": 1, "roots": [[1], [-1], [2], [-2]], "coroots": [[2], [-2], [1], [-1]]},
        {"pairing_two": True, "reflection": True, "reduced": False, "nonzero": True,
         "witnesses": {"pairing_two": None, "reflection": None, "reduced": (0, 2), "nonzero": None}},
        '{"nonzero": true, "pairing_two": true, "reduced": false, "reflection": true, '
        '"witnesses": {"nonzero": null, "pairing_two": null, "reduced": [0, 2], "reflection": null}}',
    ),
}


@pytest.mark.parametrize("name", sorted(AXIOM_FAILURES))
def test_the_axiom_failure_report_and_error_line(capsys, tmp_path, name):
    obj, report, line = AXIOM_FAILURES[name]
    assert repr(rootdatum.validate(rootdatum.from_json(json.dumps(obj))).as_dict()) == repr(report)
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(obj))
    assert run(capsys, "info", "--input", str(path)) == (
        2, "", f"error: root datum fails the axioms: {line}\n")


A1_JSON = {"rank": 1, "roots": [[2], [-2]], "coroots": [[1], [-1]]}


@pytest.mark.parametrize(
    "bad",
    [
        {"roots": [[2.7], [-2]]},
        {"roots": [["2"], [-2]]},
        {"coroots": [[True], [-1]]},
        {"extra": 1},
    ],
    ids=["float", "str", "bool", "unknown-key"],
)
def test_malformed_input_file_exits_2(capsys, tmp_path, bad):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**A1_JSON, **bad}))
    code, out, err = run(capsys, "verify", "--input", str(path), "--no-timing")
    assert code == 2 and out == "" and "error" in err
    path.write_text(json.dumps(A1_JSON))
    assert run(capsys, "verify", "--input", str(path), "--no-timing")[0] == 0


def test_input_file_without_rank_names_the_missing_key(capsys, tmp_path):
    path = tmp_path / "norank.json"
    path.write_text(json.dumps({"roots": [[2], [-2]], "coroots": [[1], [-1]]}))
    code, out, err = run(capsys, "info", "--input", str(path))
    assert code == 2 and out == ""
    assert "missing root datum keys: ['rank']" in err


def test_negative_rank_exits_2(capsys, tmp_path):
    path = tmp_path / "negative.json"
    path.write_text(json.dumps({"rank": -1, "roots": [], "coroots": []}))
    code, out, err = run(capsys, "verify", "--input", str(path), "--no-timing")
    assert code == 2 and out == ""
    assert "rank must be nonnegative" in err


@pytest.mark.parametrize("typ", ["A2:sc", "A1xT1:sc", "D4:adj"])
@pytest.mark.parametrize("from_file", [False, True])
def test_verify_checks_the_axioms_once_per_datum(capsys, tmp_path, typ, from_file):
    source = ["--type", typ]
    if from_file:
        path = tmp_path / "datum.json"
        path.write_text(rootdatum.to_json(rootdatum.build_from_dynkin(rootdatum.parse_descriptor(typ))))
        source = ["--input", str(path)]
    with mock.patch.object(rootdatum, "_check_axioms", wraps=rootdatum._check_axioms) as spy:
        code, _, _ = run(capsys, "verify", *source, "--no-timing")
    # The dual carries the datum's ok report: one check, on the datum.
    assert code == 0 and spy.call_count == 1
    (d,) = spy.call_args.args
    assert rootdatum.to_json(d) == rootdatum.to_json(rootdatum.build_from_dynkin(rootdatum.parse_descriptor(typ)))


REPEATED_PAIR_JSON = {"rank": 1, "roots": [[2], [-2], [2], [-2]], "coroots": [[1], [-1], [1], [-1]]}


@pytest.mark.parametrize("cmd", [name for name, _, _ in cli.COMMANDS])
def test_a_repeated_pair_exits_2(capsys, tmp_path, cmd):
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(REPEATED_PAIR_JSON))
    code, out, err = run(capsys, cmd, "--input", str(path))
    assert code == 2 and out == ""
    assert "(root, coroot) pair ([2], [1]) is listed twice" in err


@pytest.mark.parametrize("cmd", [name for name, _, _ in cli.COMMANDS])
def test_a_repeated_key_exits_2(capsys, tmp_path, cmd):
    # Once read as the last value of the key, with exit 0.
    path = tmp_path / "repeated-key.json"
    path.write_text('{"rank": 1, "roots": [[2], [-2]], "coroots": [[1], [-1]], "rank": 1}')
    code, out, err = run(capsys, cmd, "--input", str(path))
    assert (code, out) == (2, "")
    assert err == "error: root datum key 'rank' is listed twice\n"


@pytest.mark.parametrize("cmd", ["verify", "info", "cartan", "dualize", "export-algebra"])
def test_deeply_nested_input_exits_2(capsys, tmp_path, cmd):
    # json.loads raises RecursionError here; it is input, not a failed check.
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, cmd, "--input", str(path))
    assert code == 2 and out == ""
    assert err == "error: root datum JSON is nested too deeply\n"


@pytest.mark.parametrize("cmd", [name for name, _, _ in cli.COMMANDS])
def test_an_empty_descriptor_exits_2(capsys, cmd):
    # --type "" is a descriptor to refuse, not a missing one: it once fell
    # through to open(None) and died with a TypeError, exit 1.
    code, out, err = run(capsys, cmd, "--type", "")
    assert (code, out) == (2, "") and err.startswith("error:") and "Traceback" not in err
    assert err == "error: cannot parse descriptor factor: ''\n"


@pytest.mark.parametrize("cmd", [name for name, _, _ in cli.COMMANDS])
@pytest.mark.parametrize("desc,token", [("A01", "A01"), ("E06", "E06"), ("A1xT00", "T00")])
def test_a_rank_with_a_leading_zero_exits_2(capsys, cmd, desc, token):
    code, out, err = run(capsys, cmd, "--type", desc)
    assert (code, out, err) == (2, "", f"error: cannot parse descriptor factor: '{token}'\n")


@pytest.mark.parametrize("cmd", [name for name, _, _ in cli.COMMANDS])
@pytest.mark.parametrize("desc,token", [("A2\n", "A2\n"), ("A1\nxT1", "A1\n")])
def test_a_factor_ending_in_a_newline_exits_2(capsys, cmd, desc, token):
    # "A2\n" and "A1\nxT1" once built A2 and A1xT1 with exit 0.
    code, out, err = run(capsys, cmd, "--type", desc)
    assert (code, out, err) == (2, "", f"error: cannot parse descriptor factor: {token!r}\n")


@pytest.mark.parametrize("cmd", [name for name, _, _ in cli.COMMANDS])
@pytest.mark.parametrize("desc", ["A 2", "A2 :sc", " A2"])
def test_a_space_inside_a_factor_exits_2(capsys, cmd, desc):
    # Every space was once deleted before parsing: these built A2 with exit 0.
    code, out, err = run(capsys, cmd, "--type", desc)
    assert (code, out, err) == (2, "", f"error: cannot parse descriptor factor: {desc!r}\n")


def test_the_parser_is_built_once(capsys):
    cli._parser.cache_clear()
    # The spy stands in for the module as cli sees it, so argparse's own
    # references to ArgumentParser (super() calls, subparsers) stay real.
    with mock.patch.object(cli, "argparse", wraps=argparse) as spy:
        for argv in (["info", "--type", "A1:sc"], ["cartan", "--type", "A2:sc"], ["dualize", "--type", "T1"]):
            assert run(capsys, *argv)[0] == 0
    assert spy.ArgumentParser.call_count == 1


@pytest.mark.parametrize("typ", ["E8:sc", "B2:sc"])
def test_a_zero_scale_exits_2_before_the_run(capsys, typ):
    code, out, err = run(capsys, "verify", "--type", typ, "--scale", "2", "--scale", "0", "--no-timing")
    assert (code, out, err) == (2, "", "error: scale must be a nonzero integer\n")


@pytest.mark.parametrize("scale", [" 2", "2 ", "+2", "02", "2_0", "\uff12", "\u0663",
                                   "-0", "00", "+0", "", "x", "2.0", "2\n"])
def test_a_scale_not_written_as_a_nonzero_ascii_integer_exits_2(capsys, scale):
    # int() once read the first seven as 2, 2, 2, 2, 20, 2 (full-width) and
    # 3 (Arabic-Indic), and the run went on; "x" and "" exited 2 through
    # argparse, with a usage line and no line starting "error:".
    code, out, err = run(capsys, "verify", "--type", "A1:sc", "--scale", scale, "--no-timing")
    assert (code, out, err) == (2, "", f"error: scale must be a nonzero integer, as in 3 or -2, not {scale!r}\n")


def test_scale_lists_are_not_shared_between_calls(capsys):
    for argv, scaled in ((["--scale", "2"], [2]), ([], [])):
        code, out, _ = run(capsys, "verify", "--type", "A1:sc", *argv, "--no-timing")
        assert code == 0 and json.loads(out)["scaled_n"] == scaled


def test_missing_input_file(capsys):
    code, _, err = run(capsys, "info", "--input", "/nonexistent/datum.json")
    assert code == 2


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify"])  # neither --type nor --input
    assert exc.value.code == 2


# The E8:sc --no-timing report, byte for byte (bench/golden.json stops at
# E7): sha256 of stdout, plain and with --scale 2 --scale -1.
E8_DIGESTS = {
    (): "f4ef91e0e2afdc7c311f1d2e303ce049831911c4a2d2fb914b70e591f933c811",
    ("--scale", "2", "--scale", "-1"): "7a3f36b85dae1b0181153caad16267a456e24162726b3d09bd82856052f4dcba",
}


@pytest.mark.parametrize("scales", sorted(E8_DIGESTS))
def test_the_e8_report_keeps_its_bytes(capsys, scales):
    code, out, _ = run(capsys, "verify", "--type", "E8:sc", *scales, "--no-timing")
    assert code == 0 and json.loads(out)["overall"] is True
    assert hashlib.sha256(out.encode()).hexdigest() == E8_DIGESTS[scales]


# ---------------------------------------------------------------------------
# The descriptor and scale grammars of the README, as properties


def run_captured(*argv):
    """cli.main with its output captured, for tests that cannot take capsys."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_one_error_line(code, out, err):
    assert (code, out) == (2, "") and err.startswith("error:") and err.count("\n") == 1, (code, out, err)


_FACTOR = r"([A-G])([1-9][0-9]*)(?::(sc|adj))?|T(0|[1-9][0-9]*)(?::sc)?"
DESCRIPTOR = re.compile(rf"(?:{_FACTOR})(?: *x *(?:{_FACTOR}))*")
SCALE = re.compile(r"-?[1-9][0-9]*")
LEGAL_RANK = {"A": lambda n: n >= 1, "B": lambda n: n >= 2, "C": lambda n: n >= 2, "D": lambda n: n >= 3,
              "E": lambda n: n in (6, 7, 8), "F": lambda n: n == 4, "G": lambda n: n == 2}
# classify_label names a factor by its diagram, and C2 and D3 have those of B2 and A3.
DIAGRAM = {"C2": "B2", "D3": "A3"}


def predicted_info(text):
    """(rank, type factors, label) that info prints for the descriptor text
    by the grammar, or None when the text is outside it or names a family
    at a rank it lacks.  The type lists its factors in the order of the
    canonical simple system, so they are given sorted."""
    if not DESCRIPTOR.fullmatch(text):
        return None
    factors, torus = [], 0
    for fam, rank, tag, trank in re.findall(_FACTOR, text):
        if trank:
            torus += int(trank)
            continue
        if not LEGAL_RANK[fam](int(rank)):
            return None
        factors.append((fam + rank, tag or "sc"))
    names = [DIAGRAM.get(name, name) for name, _ in factors] + [f"T{torus}"] * bool(torus)
    labels = [f"{name}:{tag}" for name, tag in factors] + [f"T{torus}"] * bool(torus)
    rank = sum(int(name[1:]) for name, _ in factors) + torus
    return rank, sorted(names or ["T0"]), " x ".join(labels) or "T0"


# The alphabet: family letters, T, x and X, ASCII digits and non-ASCII ones
# (Arabic-Indic 3, full-width 2, mathematical bold 2), the tags, space, tab,
# newline and full-width letters.
PIECES = list("ABCDEFGTxX:0123456789") + ["sc", "adj", " ", "\t", "\n", "\u0663", "\uff12", "\U0001d7d0",
                                          "\uff21", "\uff34", "\uff58"]
# Legal factors that build in milliseconds: A, B, C and D of rank at most 4, E6, F4, G2 and tori.
LEGAL_FACTORS = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D3", "D4", "E6", "F4", "G2",
                 "T0", "T1", "T2"]
TAGS = ["", ":sc", ":adj"]
SEPARATORS = ["x", " x ", "  x", "x "]
# The ASCII digits in Arabic-Indic, full-width and mathematical bold form.
OTHER_DIGITS = [{ord(str(k)): chr(base + k) for k in range(10)} for base in (0x660, 0xFF10, 0x1D7CE)]


@st.composite
def descriptors(draw, min_size=1):
    """min_size to two legal factors, each with or without a tag, as the
    list of their pieces: family, rank, tag, separator, family, rank, tag."""
    parts = []
    for name in draw(st.lists(st.sampled_from(LEGAL_FACTORS), min_size=min_size, max_size=2)):
        parts += [name[0], name[1:], draw(st.sampled_from(TAGS)), draw(st.sampled_from(SEPARATORS))]
    return parts[:-1]


def misspelled_ranks(rank):
    """rank with a leading zero, white space, a trailing non-ASCII digit,
    or in non-ASCII digits."""
    return ([f"0{rank}", f" {rank}", f"{rank} ", f"{rank}\n", f"{rank}\u0660"]
            + [rank.translate(t) for t in OTHER_DIGITS])


@st.composite
def near_misses(draw):
    """A descriptor with one rank, tag or separator spelled as the grammar
    does not."""
    kind = draw(st.sampled_from(["rank", "tag", "separator"]))
    parts = draw(descriptors(min_size=2 if kind == "separator" else 1))
    i = draw(st.sampled_from(range({"rank": 1, "tag": 2, "separator": 3}[kind], len(parts), 4)))
    if kind == "rank":
        spellings = misspelled_ranks(parts[i])
    elif kind == "tag":
        spellings = [":SC", ": sc", ":sc ", "sc", ":", ":ADJ", ":adj:sc", "\uff1asc"]
    else:
        spellings = ["X", "\tx", "x\t", "x\n", "\nx", "xx", "x x", "\uff58", ""]
    parts[i] = draw(st.sampled_from(spellings))
    return "".join(parts)


@st.composite
def misspelled_scales(draw):
    """A nonzero integer with a sign "+", an underscore, or a rank misspelling."""
    n = draw(st.integers(1, 10**6))
    sign = draw(st.sampled_from(["", "-"]))
    digits = str(n)
    return sign + draw(st.sampled_from(misspelled_ranks(digits) + [f"+{digits}", f"{digits[0]}_{digits[1:]}"]))


def edited(base, pieces):
    """base with up to two pieces inserted, swapped in or deleted."""
    @st.composite
    def draw_edits(draw):
        text = draw(base)
        for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
            pos = draw(st.integers(0, len(text)))
            op = draw(st.sampled_from(["insert", "replace", "delete"]))
            piece = "" if op == "delete" else draw(st.sampled_from(pieces))
            text = text[:pos] + piece + text[pos + (op != "insert"):]
        return text
    return draw_edits()


def padded(base, pieces):
    """base with nothing, white space or a piece before it and after it."""
    ends = st.one_of(st.just(""), st.sampled_from([" ", "\t", "\n"]), st.sampled_from(pieces))
    return st.tuples(ends, base, ends).map("".join)


_descriptors = descriptors().map("".join)
DESCRIPTORS = st.one_of(_descriptors, near_misses(), edited(_descriptors, PIECES), padded(_descriptors, PIECES),
                        st.lists(st.sampled_from(PIECES), max_size=6).map("".join))
SCALE_PIECES = PIECES + ["+", "-", "_"]
_scales = st.integers(-10**6, 10**6).map(str)
SCALES = st.one_of(_scales, misspelled_scales(), edited(_scales, SCALE_PIECES), padded(_scales, SCALE_PIECES),
                   st.lists(st.sampled_from(SCALE_PIECES), max_size=5).map("".join))


@settings(max_examples=500, deadline=None)
@given(text=DESCRIPTORS)
# Near misses that random draws reach only now and then: X, a tab, a trailing
# non-ASCII digit, a trailing newline, a torus tagged :adj.
@example(text="A1XT1")
@example(text="A2\tx T1")
@example(text="A1\u0663")
@example(text="B2:sc\n")
@example(text="T1:adj")
def test_a_descriptor_is_in_the_grammar_or_exits_2_with_one_error_line(text):
    want = predicted_info(text)
    # Ranks stay small, unless an edit has run two digits together.
    assume(want is None or want[0] <= 12)
    # --type=TEXT keeps argparse from reading a leading "-" as an option.
    code, out, err = run_captured("info", f"--type={text}")
    if want is None:
        assert_one_error_line(code, out, err)
    else:
        obj = json.loads(out)
        assert (code, err) == (0, "") and (obj["rank"], sorted(obj["type"].split(" x ")), obj["label"]) == want


@settings(max_examples=500, deadline=None)
@given(text=SCALES)
# A sign "+", a trailing non-ASCII digit, and "--", which argparse before
# Python 3.13 hands over as [] and which once raised TypeError.
@example(text="+2")
@example(text="1\u0663")
@example(text="--")
def test_a_scale_is_in_the_grammar_or_exits_2_with_one_error_line(text):
    code, out, err = run_captured("verify", "--type", "A1:sc", f"--scale={text}", "--no-timing")
    if SCALE.fullmatch(text):
        assert (code, err) == (0, "") and json.loads(out)["scaled_n"] == [int(text)]
    else:
        assert_one_error_line(code, out, err)
