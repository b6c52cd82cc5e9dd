"""Tests of the benchmark itself: the gate fires on bad outputs, the tracer
wraps and restores every binding site, and BENCHMARK.json names exactly the
metrics run.py prints.  Only small types are verified here."""

import json
import random
import sys
from types import SimpleNamespace

import gate
import run
import spans
import workloads

sys.path.insert(0, str(run.SRC))

from liedual import ceforms, chevalley, cli, exactlin, rootdatum, tduality  # noqa: E402

LIB = SimpleNamespace(rootdatum=rootdatum, exactlin=exactlin, chevalley=chevalley,
                      ceforms=ceforms, tduality=tduality, cli=cli)
GOLDEN = gate.load_golden()


def a2_report():
    d = rootdatum.build_from_dynkin(rootdatum.parse_descriptor("A2:sc"))
    return run.verify_report(LIB, workloads.VerifyRequest("A2:sc", d, ()), spans.Tracer())


def census_request(key):
    argv = key.split()
    return workloads.CliRequest(key, tuple(argv), "digest", argv[2])


def test_golden_report_passes_and_tampered_digest_fails():
    text = a2_report()
    assert gate.check_report("A2:sc", text, GOLDEN) == []
    tampered = {"reports": {"A2:sc": "0" * 64}}
    assert gate.check_report("A2:sc", text, tampered) == ["report digest differs from golden"]


def test_overall_false_fails_even_with_matching_digest():
    report = json.loads(a2_report())
    report["overall"] = False
    text = json.dumps(report, indent=2, sort_keys=True)
    golden = {"reports": {"A2:sc": gate.digest(text)}}
    assert gate.check_report("A2:sc", text, golden) == ["verification reports overall: false"]


def test_wrong_exit_code_fails():
    request = census_request("verify --type B2:sc --no-timing")
    code, out = run.call_cli(LIB, request.argv)
    assert code == 1
    assert gate.check_cli(request, code, out, GOLDEN) == []
    assert gate.check_cli(request, 0, out, GOLDEN) == ["exit 0, expected 1"]


def test_accepted_malformed_input_fails(tmp_path):
    requests = workloads.build_inputs("census", LIB, 0, tmp_path)
    malformed = [r for r in requests if r.check == "rejected"]
    assert {r.key for r in malformed} >= workloads.KNOWN_DEFECTS
    for request in malformed:
        assert gate.check_cli(request, 2, "", GOLDEN) == []
        assert gate.check_cli(request, 0, "{}", GOLDEN)


def test_basis_change_keeps_pairings_and_invariants(tmp_path):
    rng = random.Random(0)
    d = rootdatum.build_from_dynkin(rootdatum.parse_descriptor("A2xT1:sc"))
    U, V = workloads.unimodular_pair(d.rank, rng)
    assert [[sum(U[i][k] * V[k][j] for k in range(3)) for j in range(3)] for i in range(3)] == [
        [1, 0, 0], [0, 1, 0], [0, 0, 1]]
    e = workloads.change_basis(d, U, V)
    assert [rootdatum.pair(c, r) for c in e["coroots"] for r in e["roots"]] == [
        rootdatum.pair(c, r) for c in d.coroots for r in d.roots]
    path = tmp_path / "gl.json"
    path.write_text(json.dumps(e))
    request = workloads.CliRequest("info --input gl.json", ("info", "--input", str(path)), "invariants", "A2xT1:sc")
    code, out = run.call_cli(LIB, request.argv)
    assert gate.check_cli(request, code, out, GOLDEN) == []
    wrong = {"invariants": {"A2xT1:sc": dict(GOLDEN["invariants"]["A2xT1:sc"], pi1=[2])}}
    assert gate.check_cli(request, code, out, wrong)


def test_tracer_wraps_every_binding_site_and_restores():
    original = chevalley.build_lie_algebra
    tracer = spans.Tracer()
    tracer.install(timed=True)
    try:
        assert tduality.build_lie_algebra is chevalley.build_lie_algebra is not original
        tracer.start_request("A2:sc")
        with tracer.span("request"):
            a2_report()
    finally:
        tracer.uninstall()
    assert tduality.build_lie_algebra is chevalley.build_lie_algebra is original
    calls, self_s = spans.self_times(tracer.spans)
    assert calls["chevalley.build_lie_algebra"] == 2
    assert calls["chevalley.jacobi_witness"] == 2
    assert calls["chevalley.killing_matrix"] > 0
    assert calls["ceforms.cartan_three_form"] == 2
    assert dict(tracer.sizes["A2:sc"])["chevalley.dim"] == [8, 8]
    root = tracer.spans[0]
    assert root[0] == "request" and abs(sum(self_s.values()) - (root[2] - root[1])) < 1e-9


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
