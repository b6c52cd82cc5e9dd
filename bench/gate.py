"""Correctness gate: every benchmark output is checked against golden.json.

golden.json is recorded by record_golden.py from the sources the benchmark
was defined against.  It holds the sha256 of each fixed ``--no-timing``
verification report and of each fixed CLI request's stdout with its exit
code, the invariants (verdict, pi1, type) that basis-changed inputs must
reproduce, and exit 2 for malformed inputs.
Each check returns a list of problems; an empty list means the output is
correct.  A mismatch is a failed operation, never a skipped one.
"""

import hashlib
import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


def load_golden(path=GOLDEN_PATH):
    return json.loads(Path(path).read_text())


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def check_report(key, text, golden):
    """A verification report from the ade-ladder or scaled-flux workload."""
    problems = []
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    if report.get("overall") is not True:
        problems.append("verification reports overall: false")
    want = golden["reports"].get(key)
    if want is None:
        problems.append("no golden digest for this report")
    elif digest(text) != want:
        problems.append("report digest differs from golden")
    return problems


def check_cli(request, code, out, golden):
    """One census request: its exit code and stdout."""
    if request.check == "rejected":
        want = golden["cli"][request.key]["exit"]
        return [] if code == want else [f"exit {code}, expected {want}: malformed input accepted"]
    if request.check == "digest":
        want = golden["cli"].get(request.key)
        if want is None:
            return ["no golden entry for this request"]
        problems = []
        if code != want["exit"]:
            problems.append(f"exit {code}, expected {want['exit']}")
        if digest(out) != want["sha256"]:
            problems.append("stdout digest differs from golden")
        return problems
    return _check_invariants(request, code, out, golden["invariants"][request.base])


def _check_invariants(request, code, out, inv):
    verify = request.argv[0] == "verify"
    want_exit = inv["verify_exit"] if verify else 0
    if code != want_exit:
        return [f"exit {code}, expected {want_exit}"]
    try:
        obj = json.loads(out)
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"]
    got = obj["datum"] if verify else obj
    problems = [
        f"{field} {got.get(field)!r}, expected {inv[field]!r}"
        for field in ("pi1", "type")
        if got.get(field) != inv[field]
    ]
    if verify and obj.get("overall") != inv["overall"]:
        problems.append(f"overall {obj.get('overall')!r}, expected {inv['overall']!r}")
    return problems
