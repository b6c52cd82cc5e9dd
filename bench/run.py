#!/usr/bin/env python3
"""Benchmark of the liedual verifier, stdlib only, one process, one thread.

    python3 bench/run.py --workload {ade-ladder,scaled-flux,census} \
        --seed N --seconds S --trace {0,1}

Run from the root of a liedual checkout; the package is imported from its
``src/`` directory.  Set-up (import, build inputs, write input files) is
repeated and timed; then whole passes over the workload's requests run until
at least ``--seconds`` have been measured.  Every output goes through the
gate in gate.py.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate, and it carries the
per-layer metrics of the traced passes (per pass, median over passes) plus the
tracing overhead.  The line before it is a record with the machine, the
per-workload timings named in bench/README.md, per-type sizes and failures;
the record (and, when traced, the spans) is also written to ``.bench_out/``.
"""

import argparse
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import gate
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "liedual"
MODULES = ("rootdatum", "exactlin", "chevalley", "ceforms", "tduality", "cli")
SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_s": "s",
    "requests_per_s": "1/s",
}
CALL_COUNTS = (
    "rootdatum.validate", "rootdatum.positive_system", "exactlin.solve_exact",
    "chevalley.build_lie_algebra", "chevalley.jacobi_witness", "ceforms.cartan_three_form",
    "ceforms.ce_differential", "tduality.flux_residual_form",
)
SIZES = ("chevalley.dim", "chevalley.table_entries", "ceforms.H_terms", "tduality.spanning_set_size", "tduality.phi_terms")
PER_LAYER = (
    {f"{name}.calls": "count" for name in CALL_COUNTS}
    | {f"{name}.self_s": "s" for _, _, name, _ in spans.ENTRY_POINTS}
    | {name: "count" for name in SIZES}
    | {"trace.overhead_s": "s", "trace.spans": "count"}
)
ROADMAP_BASELINE_S = {"E6:sc": 3.2, "E7:sc": 14.9}


def setup(workload, seed, workdir):
    """Import liedual afresh and build the workload's requests; timed."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    lib = SimpleNamespace(**{m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES})
    requests = workloads.build_inputs(workload, lib, seed, workdir)
    elapsed = time.perf_counter() - t0
    if Path(sys.modules[PACKAGE].__file__).resolve().parent != SRC / PACKAGE:
        raise ImportError(f"{PACKAGE} was not imported from {SRC}")
    return elapsed, lib, requests


def verify_report(lib, request, tracer):
    """verify_all and the canonical --no-timing report text."""
    report = lib.tduality.verify_all(request.datum, scales=request.scales)
    with tracer.span("tduality.report"):
        return json.dumps(report.as_dict(timing=False), indent=2, sort_keys=True)


def call_cli(lib, argv):
    """cli.main with stdout captured; returns (exit code, stdout)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = lib.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def execute(lib, request, tracer, golden):
    """Run one request; return (seconds, problems).  The gate is not timed."""
    t0 = time.perf_counter()
    if isinstance(request, workloads.VerifyRequest):
        text = verify_report(lib, request, tracer)
        elapsed = time.perf_counter() - t0
        return elapsed, gate.check_report(request.key, text, golden)
    code, out = call_cli(lib, request.argv)
    elapsed = time.perf_counter() - t0
    return elapsed, gate.check_cli(request, code, out, golden)


def measure(args, lib, requests, golden):
    """Whole passes until --seconds have elapsed; traced runs alternate
    untraced and traced passes and need one of each."""
    tracer = spans.Tracer(PACKAGE)
    orders = workloads.pass_orders(args.workload, requests, args.seed)
    passes = []
    t_start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        tracer.sizes.clear()
        first_span = len(tracer.spans)
        tracer.install(timed=traced)
        latencies, failures = [], []
        try:
            for request in next(orders):
                tracer.start_request(request.key)
                t0 = time.perf_counter()
                try:
                    elapsed, problems = execute(lib, request, tracer, golden)
                except Exception:
                    elapsed, problems = time.perf_counter() - t0, ["raised: " + traceback.format_exc(limit=3)]
                latencies.append((request.key, elapsed))
                if problems:
                    failures.append({"key": request.key, "problems": problems})
        finally:
            tracer.uninstall()
        passes.append({
            "traced": traced,
            "latencies": latencies,
            "failures": failures,
            "spans": (first_span, len(tracer.spans)),
            "sizes": {k: dict(v) for k, v in tracer.sizes.items()},
        })
        if time.perf_counter() - t_start >= args.seconds and (not args.trace or len(passes) >= 2):
            return passes, tracer


def pass_seconds(p):
    return sum(s for _, s in p["latencies"])


def key_samples(passes, key):
    return [s for p in passes for k, s in p["latencies"] if k == key]


def end_to_end_metrics(passes, setup_samples):
    untraced = [p for p in passes if not p["traced"]]
    n_requests = sum(len(p["latencies"]) for p in untraced)
    return {
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "pass_s": statistics.median(pass_seconds(p) for p in untraced),
        "requests_per_s": n_requests / sum(pass_seconds(p) for p in untraced),
    }


def per_layer_metrics(passes, tracer):
    traced = [p for p in passes if p["traced"]]
    per_pass = []
    for p in traced:
        calls, self_s = spans.self_times(tracer.spans, *p["spans"])
        values = {f"{n}.calls": calls.get(n, 0) for n in CALL_COUNTS}
        values |= {f"{name}.self_s": self_s.get(name, 0.0) for _, _, name, _ in spans.ENTRY_POINTS}
        values |= {s: sum(sum(v.get(s, ())) for v in p["sizes"].values()) for s in SIZES}
        values["trace.spans"] = p["spans"][1] - p["spans"][0]
        per_pass.append(values)
    out = {name: statistics.median(v[name] for v in per_pass) for name in per_pass[0]}
    untraced = [pass_seconds(p) for p in passes if not p["traced"]]
    out["trace.overhead_s"] = statistics.median(map(pass_seconds, traced)) - statistics.median(untraced)
    return out


def module_shares(passes, tracer):
    """Share of traced pass time spent as self time in each module."""
    totals = {}
    for p in (p for p in passes if p["traced"]):
        _, self_s = spans.self_times(tracer.spans, *p["spans"])
        for name, s in self_s.items():
            module = name.split(".")[0]
            totals[module] = totals.get(module, 0.0) + s
    whole = sum(pass_seconds(p) for p in passes if p["traced"])
    return {m: s / whole for m, s in sorted(totals.items())}


def timed_summary(values):
    values = list(values)
    return {"value": statistics.median(values), "n": len(values)}


def workload_record(workload, passes):
    """The per-workload timings under the names ROADMAP uses (see README)."""
    untraced = [p for p in passes if not p["traced"]]
    if workload == "ade-ladder":
        out = {"ladder_s": timed_summary(map(pass_seconds, untraced))}
        for desc in ("D5:sc", "E6:sc", "E7:sc"):
            out[f"verify_s.{desc.split(':')[0]}"] = timed_summary(key_samples(untraced, desc))
        out["roadmap_baseline_s"] = {k.split(":")[0]: v for k, v in ROADMAP_BASELINE_S.items()}
        return out
    if workload == "scaled-flux":
        return {"scaled_pass_s": timed_summary(map(pass_seconds, untraced))}
    lat = [s for p in untraced for _, s in p["latencies"]]
    p90 = statistics.quantiles(lat, n=10)[8]
    return {
        "census.requests_per_s": len(lat) / sum(lat),
        "census.latency_p50_ms": {"value": 1000 * statistics.median(lat), "n": len(lat)},
        "census.latency_p90_ms": {"value": 1000 * p90, "n": len(lat), "beyond": sum(s > p90 for s in lat)},
    }


def machine():
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    u = os.uname()
    return {
        "node": u.nodename, "system": u.sysname, "release": u.release, "machine": u.machine,
        "cpu_model": cpu, "nproc": len(os.sched_getaffinity(0)), "python": sys.version.split()[0],
    }


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / PACKAGE).glob("*.py")))


def sizes_record(workload, passes):
    first = passes[0]["sizes"]
    if workload != "census":
        return first
    totals = {}
    for per_key in first.values():
        for size, values in per_key.items():
            totals[size] = totals.get(size, 0) + sum(values)
    return {"census pass total": totals}


def write_outputs(name, record, tracer):
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{name}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if tracer.spans:
        with open(out_dir / f"{name}-spans.jsonl", "w") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "request"],
                                 "requests": tracer.requests}) + "\n")
            for s in tracer.spans:
                fh.write(json.dumps(s) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description="liedual benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: {SRC / PACKAGE} not found; run from the root of a liedual checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_samples = []
        for _ in range(SETUP_REPEATS):
            seconds, lib, requests = setup(args.workload, args.seed, workdir)
            setup_samples.append(seconds)
        passes, tracer = measure(args, lib, requests, gate.load_golden())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p["latencies"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    correct = all(f["key"] in workloads.KNOWN_DEFECTS for f in failures)
    if args.trace:
        metrics = {name: {"value": v, "unit": PER_LAYER[name]} for name, v in per_layer_metrics(passes, tracer).items()}
    else:
        metrics = {name: {"value": v, "unit": END_TO_END[name]}
                   for name, v in end_to_end_metrics(passes, setup_samples).items()}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine(), "src_lines": src_lines(),
        "passes": {"untraced": sum(not p["traced"] for p in passes), "traced": sum(p["traced"] for p in passes)},
        "setup_s_samples": setup_samples,
        "error_rate": {"value": len(failures) / attempted, "failed": len(failures), "attempted": attempted},
        "failures": sorted({f["key"]: f["problems"] for f in failures}.items()),
        "timings": workload_record(args.workload, passes),
        "sizes": sizes_record(args.workload, passes),
    }
    if args.trace:
        record["module_self_share"] = module_shares(passes, tracer)
    write_outputs(f"{args.workload}-seed{args.seed}-trace{args.trace}", record, tracer)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
