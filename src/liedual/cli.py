"""Command-line interface: construct root data, dualize, inspect Cartan
matrices, export Chevalley structure constants, and run the T-duality
verifier.  Exit codes: 0 success, 1 mathematical check failure, 2
usage/input error.
"""

import argparse
import functools
import json
import re
import sys
from json.encoder import encode_basestring_ascii

from . import chevalley, rootdatum, tduality

EXIT_OK = 0
EXIT_MATH_FAIL = 1
EXIT_USAGE = 2


def _load_datum(args):
    """Root datum from --type or --input; raises ValueError on bad input."""
    if args.type is not None:
        desc = rootdatum.parse_descriptor(args.type)
        d = rootdatum.build_from_dynkin(desc)
    else:
        with open(args.input) as fh:
            d = rootdatum.from_json(fh.read())
    rep = rootdatum.validate(d)
    if not rep.ok:
        raise ValueError("root datum fails the axioms: " + json.dumps(rep.as_dict(), sort_keys=True))
    return d


_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _dumps(obj, ind="\n"):
    """The stdlib's json.dumps text with indent=2 and sort_keys=True, byte
    for byte, without the pure-Python encoder that indent selects; ind is
    the line break and indent of obj's own line.  Types match exactly: dict
    with str keys, list, tuple, str, int, float, bool and None.  Anything
    else raises TypeError, an int key included: the stdlib would write it
    as a string, and no command emits one."""
    t = type(obj)
    if t is str:
        return encode_basestring_ascii(obj)
    inner = ind + "  "
    if t is list or t is tuple:
        items, brackets = [_dumps(v, inner) for v in obj], "[]"
    elif t is dict:
        items, brackets = [encode_basestring_ascii(k) + ": " + _dumps(obj[k], inner) for k in sorted(obj)], "{}"
    elif t is int:
        return int.__repr__(obj)
    elif t is float:
        text = float.__repr__(obj)
        return _FLOATS.get(text, text)
    elif t is bool:
        return "true" if obj else "false"
    elif obj is None:
        return "null"
    else:
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")
    return brackets[0] + inner + ("," + inner).join(items) + ind + brackets[1] if items else brackets


def _emit(obj, out_path=None):
    text = _dumps(obj)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_info(args):
    d = _load_datum(args)
    out = {
        "rank": d.rank,
        "roots": d.nroots,
        "ade": rootdatum.is_ade(d),
        "pi1": rootdatum.fundamental_group(d),
        "type": rootdatum.classify_label(d),
        "cartan": [[tduality.frac_str(v) for v in row] for row in rootdatum.cartan_matrix(d)],
    }
    if d.label:
        out["label"] = d.label
    _emit(out, args.out)
    return EXIT_OK


def cmd_dualize(args):
    d = _load_datum(args)
    _emit(rootdatum.to_json_dict(rootdatum.dualize(d)), args.out)
    return EXIT_OK


def cmd_cartan(args):
    d = _load_datum(args)
    _emit([[tduality.frac_str(v) for v in row] for row in rootdatum.cartan_matrix(d)], args.out)
    return EXIT_OK


def cmd_export_algebra(args):
    d = _load_datum(args)
    L = chevalley.build_lie_algebra(d)
    dump = chevalley.structure_constant_dump(L)
    dump["dim"] = L.dim
    dump["basis"] = [f"{lab[0]}{lab[1]}" for lab in L.labels]
    _emit(dump, args.out)
    return EXIT_OK


def cmd_verify(args):
    # int() would take " 2" or "2_0"; argparse < 3.13 reads --scale=-- as []; verify_all refuses "0".
    for text in args.scale:
        if type(text) is not str or not re.fullmatch("-?[1-9][0-9]*|0", text):
            raise ValueError(f"scale must be a nonzero integer, as in 3 or -2, not {text!r}")
    d = _load_datum(args)
    report = tduality.verify_all(d, scales=tuple(map(int, args.scale)))
    _emit(report.as_dict(timing=not args.no_timing), args.out)
    return EXIT_OK if report.overall else EXIT_MATH_FAIL


COMMANDS = (
    ("info", cmd_info, "rank, root count, ADE flag, Cartan matrix, fundamental group"),
    ("dualize", cmd_dualize, "write the Langlands-dual root datum"),
    ("cartan", cmd_cartan, "Cartan matrix of the canonical simple system"),
    ("export-algebra", cmd_export_algebra, "Chevalley structure constants as JSON"),
    ("verify", cmd_verify, "run the full T-duality check suite"),
)


@functools.cache
def _parser():
    """The argument parser, built once per process from COMMANDS."""
    parser = argparse.ArgumentParser(
        prog="liedual",
        description="Exact verification of T-duality between reductive groups and their Langlands duals",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, func, text in COMMANDS:
        p = subs.add_parser(name, help=text)
        grp = p.add_mutually_exclusive_group(required=True)
        grp.add_argument("--type", help="Dynkin descriptor, e.g. A2:sc, D4:adj, A1xT1:sc, T2")
        grp.add_argument("--input", help="path to a root-datum JSON file")
        p.add_argument("--out", help="write JSON to a file instead of stdout")
        if func is cmd_verify:
            # append copies the list before it appends, so the shared default stays empty.
            p.add_argument("--scale", action="append", default=[],
                           help="additionally verify with this integer multiple of F and H (repeatable)")
            p.add_argument("--no-timing", action="store_true", help="omit timing fields for byte-stable output")
        p.set_defaults(func=func)
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
