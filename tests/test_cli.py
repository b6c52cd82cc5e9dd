import argparse
import hashlib
import json
from unittest import mock

import pytest

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
