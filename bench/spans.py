"""Spans around liedual's public entry points, recorded from outside.

The tracer replaces each listed function at every binding site inside the
package (module attributes, re-exports, ``from x import f`` copies) and each
listed method on its class, and restores them afterwards.  Spans stay in
memory as ``[name, start, end, parent, request]`` and are written out when the
benchmark ends.  With ``timed=False`` only the size probes are installed: they
read no clock and record the sizes of returned objects.
"""

import sys
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

# (module, attribute, span name, size probe on the return value)
ENTRY_POINTS = (
    ("rootdatum", "validate", "rootdatum.validate", None),
    ("rootdatum", "positive_system", "rootdatum.positive_system", None),
    ("rootdatum", "classify_label", "rootdatum.classify_label", None),
    ("rootdatum", "build_from_dynkin", "rootdatum.build_from_dynkin", None),
    ("rootdatum", "dualize", "rootdatum.dualize", None),
    ("rootdatum", "canonicalize", "rootdatum.canonicalize", None),
    ("rootdatum", "fundamental_group", "rootdatum.fundamental_group", None),
    ("exactlin", "solve_exact", "exactlin.solve_exact", None),
    ("exactlin", "smith_normal_form", "exactlin.smith_normal_form", None),
    ("exactlin", "det_exact", "exactlin.det_exact", None),
    ("exactlin", "integer_kernel", "exactlin.integer_kernel", None),
    ("chevalley", "build_lie_algebra", "chevalley.build_lie_algebra",
     lambda L: {"chevalley.dim": L.dim, "chevalley.table_entries": len(L.table)}),
    ("chevalley", "jacobi_witness", "chevalley.jacobi_witness", None),
    ("chevalley", "ReductiveLieAlgebra.killing_matrix", "chevalley.killing_matrix", None),
    ("ceforms", "cartan_three_form", "ceforms.cartan_three_form", lambda H: {"ceforms.H_terms": len(H.terms)}),
    ("ceforms", "ce_differential", "ceforms.ce_differential", None),
    ("tduality", "build_pair", "tduality.build_pair",
     lambda p: {"tduality.spanning_set_size": len(p.spanning_set)}),
    ("tduality", "flux_residual_form", "tduality.flux_residual_form", lambda phi: {"tduality.phi_terms": len(phi.terms)}),
    ("tduality", "check_flux_equation", "tduality.check_flux_equation", None),
    ("tduality", "check_nondegeneracy", "tduality.check_nondegeneracy", None),
    ("tduality", "check_integrality", "tduality.check_integrality", None),
    ("tduality", "check_angle_positivity", "tduality.check_angle_positivity", None),
    ("tduality", "VerificationReport.as_dict", "tduality.report", None),
    ("tduality", "verify_all", "tduality.verify_all", None),
    ("cli", "main", "cli.main", None),
)


class Tracer:
    def __init__(self, package="liedual"):
        self.package = package
        self.spans = []       # [name, start, end, parent index or -1, request id]
        self.requests = []    # request id -> request key
        self.sizes = defaultdict(lambda: defaultdict(list))   # request key -> size -> values
        self.timed = False
        self.request = -1
        self.request_key = None
        self._stack = []
        self._undo = []

    def start_request(self, key):
        self.request = len(self.requests)
        self.request_key = key
        self.requests.append(key)

    def install(self, timed):
        self.timed = timed
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == self.package or name.startswith(self.package + "."))]
        for modname, attr, name, probe in ENTRY_POINTS:
            if not timed and probe is None:
                continue
            module = sys.modules[f"{self.package}.{modname}"]
            if "." in attr:   # a method: its class is the one binding site
                cls_name, fn_name = attr.split(".")
                owner = getattr(module, cls_name)
                original = getattr(owner, fn_name)
                sites = [(owner, fn_name)]
            else:
                original = getattr(module, attr)
                sites = [(m, a) for m in modules for a, v in list(vars(m).items()) if v is original]
            wrapper = self._wrap(name, original, probe)
            for site, a in sites:
                setattr(site, a, wrapper)
                self._undo.append((site, a, original))

    def uninstall(self):
        for site, a, original in reversed(self._undo):
            setattr(site, a, original)
        self._undo.clear()
        self.timed = False

    def span(self, name):
        """Context manager for a span opened by the benchmark itself."""
        return self._span(name) if self.timed else nullcontext()

    @contextmanager
    def _span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.request])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _record(self, probe, result):
        for size, value in probe(result).items():
            self.sizes[self.request_key][size].append(value)

    def _wrap(self, name, fn, probe):
        tracer = self
        if not self.timed:
            def probed(*args, **kwargs):
                result = fn(*args, **kwargs)
                tracer._record(probe, result)
                return result
            return probed

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if probe is not None:
                tracer._record(probe, result)
            return result
        return traced


def self_times(spans, lo=0, hi=None):
    """Per span name: (calls, self seconds) over spans[lo:hi].

    Self time is a span's duration minus the durations of its direct
    children; with one thread, children nest inside their parent.
    """
    hi = len(spans) if hi is None else hi
    child = defaultdict(float)
    for name, start, end, parent, _ in spans[lo:hi]:
        if parent >= 0:
            child[parent] += end - start
    calls = defaultdict(int)
    self_s = defaultdict(float)
    for i in range(lo, hi):
        name, start, end, _, _ = spans[i]
        calls[name] += 1
        self_s[name] += (end - start) - child[i]
    return calls, self_s
