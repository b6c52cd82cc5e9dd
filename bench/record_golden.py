#!/usr/bin/env python3
"""Record bench/golden.json from the liedual sources of this checkout.

    python3 bench/record_golden.py

The golden file pins the outputs of the commit it was recorded at: the sha256
of every fixed verification report and census stdout, the exit codes, and the
invariants of the basis-changed types.  Recording refuses a report whose
verdict is false and an exit code that breaks workloads.expected_exit.
Malformed inputs are pinned to exit 2 by that rule, not by what the recording
commit does with them.  Re-record only when a change is meant to alter report
bytes, and say so where the change is described.
"""

import json
import shutil
import sys
import time

import gate
import run
import spans
import workloads


def main():
    sys.path.insert(0, str(run.SRC))
    workdir = run.ROOT / ".bench_work" / "record-golden"
    golden = {"reports": {}, "cli": {}, "invariants": {}}
    try:
        _, lib, census = run.setup("census", 0, workdir)
        for request in census:
            want = workloads.expected_exit(request)
            if request.check == "rejected":
                golden["cli"][request.key] = {"exit": want}
            elif request.check == "digest":
                code, out = run.call_cli(lib, request.argv)
                if code != want:
                    sys.exit(f"{request.key}: exit {code}, expected {want}")
                golden["cli"][request.key] = {"exit": code, "sha256": gate.digest(out)}
        for desc in workloads.BASIS_TYPES:
            _, info = run.call_cli(lib, ["info", "--type", desc])
            code, report = run.call_cli(lib, ["verify", "--type", desc, "--no-timing"])
            info, report = json.loads(info), json.loads(report)
            golden["invariants"][desc] = {
                "pi1": info["pi1"], "type": info["type"], "overall": report["overall"], "verify_exit": code,
            }
        tracer = spans.Tracer(run.PACKAGE)
        for name in ("ade-ladder", "scaled-flux"):
            for request in workloads.build_inputs(name, lib, 0, workdir):
                t0 = time.perf_counter()
                text = run.verify_report(lib, request, tracer)
                if json.loads(text)["overall"] is not True:
                    sys.exit(f"{request.key}: verification fails")
                golden["reports"][request.key] = gate.digest(text)
                print(f"{request.key}: {time.perf_counter() - t0:.2f} s", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    gate.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
