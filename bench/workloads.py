"""Workload catalogs and input generation for the liedual benchmark.

Three closed-loop workloads, each with one caller:

* ``ade-ladder``: ``verify_all`` plus the canonical ``--no-timing`` report on
  A2, D4, D5, E6 and E7 (simply connected), in that order.  The user's time to
  a verdict; the Jacobi certificate, the Cartan 3-form and the flux triple
  sweep dominate.
* ``scaled-flux``: ``verify_all`` with integer scales on one built pair per
  type, so phi and the flux check run once per scale.  Covers the radical and
  torus path (A1xT1) as well.
* ``census``: a seeded stream of ``cli.main`` requests over small root data,
  ``--input`` files (fixed, GL_n(Z) basis-changed, malformed).  Most time goes
  to root-datum handling, exact linear algebra and algebra builds.

The seed only drives ``census`` (request order and the basis changes); the
two verification ladders are fixed lists.
"""

import json
import random
from dataclasses import dataclass

LADDER = (("A2:sc", ()), ("D4:sc", ()), ("D5:sc", ()), ("E6:sc", ()), ("E7:sc", ()))
SCALED = (("A1xT1:sc", (2, 3, -1)), ("A3:adj", (2, 3, -1)), ("D5:sc", (2, 3, -1)), ("E6:sc", (2, -1)))

# Simple and adjoint forms of every family at rank <= 5, then tori and products.
CENSUS_TYPES = tuple(
    f"{fam}{n}:{iso}"
    for fam, ranks in (("A", range(1, 6)), ("B", range(2, 6)), ("C", range(2, 6)),
                       ("D", range(3, 6)), ("F", (4,)), ("G", (2,)))
    for n in ranks
    for iso in ("sc", "adj")
) + ("T1", "T2", "A1xT1:sc", "A1xA1:sc", "A1:adjxA1:adj", "A2xT1:sc", "B2xA1:sc", "G2xT1", "A1xA2:adj")
DATUM_COMMANDS = ("info", "cartan", "dualize", "export-algebra")
# Root data written to --input files as they are, and with a seeded change of lattice basis.
INPUT_TYPES = ("A2:sc", "B3:adj", "A1xT1:sc", "G2:sc", "D4:adj")
BASIS_TYPES = ("A2:sc", "A3:adj", "B2:sc", "C3:adj", "G2:adj", "A1xT1:sc", "A1xA1:sc", "D4:sc", "A2xT1:sc", "T2")
# Non-int coordinates that int() coerces into a valid A1 datum, and one datum
# that fails the pairing axiom.  Every one of them must be rejected with exit 2.
MALFORMED = {
    "coord_float.json": {"rank": 1, "roots": [[2.7], [-2]], "coroots": [[1], [-1]]},
    "coord_str.json": {"rank": 1, "roots": [["2"], [-2]], "coroots": [[1], [-1]]},
    "coord_bool.json": {"rank": 1, "roots": [[2], [-2]], "coroots": [[True], [-1]]},
    "pairing_one.json": {"rank": 1, "roots": [[1], [-1]], "coroots": [[1], [-1]]},
}
# Census requests that fail while the input reader coerces coordinates with
# int() (ROADMAP open item 4).  They stay in the
# stream and count as failed operations; any other failure makes a run incorrect.
KNOWN_DEFECTS = frozenset(
    f"verify --input {name} --no-timing" for name in ("coord_float.json", "coord_str.json", "coord_bool.json")
)


@dataclass(frozen=True)
class VerifyRequest:
    key: str
    datum: object
    scales: tuple


@dataclass(frozen=True)
class CliRequest:
    key: str          # argv with input files named by basename; the golden key
    argv: tuple       # argv with input files as full paths
    check: str        # "digest", "invariants" or "rejected"
    base: str = None  # the type the request is about; None for malformed input


WORKLOADS = ("ade-ladder", "scaled-flux", "census")


def verify_key(desc, scales):
    return f"{desc} scales={','.join(map(str, scales))}" if scales else desc


def factors(desc):
    """(family, rank) per factor of a descriptor such as "A1xT1:sc"."""
    out = []
    for tok in desc.split("x"):
        name = tok.split(":")[0]
        out.append((name[0], int(name[1:])))
    return out


def census_verifies(desc):
    """verify stays on non-ADE data, which stop at ade_symmetry, or ADE rank <= 4."""
    fs = factors(desc)
    return any(f in "BCFG" for f, _ in fs) or sum(n for _, n in fs) <= 4


def expected_exit(request):
    """0 on success, 1 for verify on B/C/F/G (no coroot-preserving
    isomorphism), 2 for malformed input."""
    if request.check == "rejected":
        return 2
    if request.argv[0] != "verify":
        return 0
    return 1 if any(f in "BCFG" for f, _ in factors(request.base)) else 0


def unimodular_pair(n, rng, steps=6):
    """A seeded U in GL_n(Z) and its exact inverse, from elementary moves."""
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    V = [row[:] for row in U]
    for _ in range(steps):
        if n > 1 and rng.random() < 0.8:
            i, j = rng.sample(range(n), 2)
            k = rng.choice((-2, -1, 1, 2))
            U[i] = [a + k * b for a, b in zip(U[i], U[j])]
            for row in V:
                row[j] -= k * row[i]
        else:
            i = rng.randrange(n)
            U[i] = [-a for a in U[i]]
            for row in V:
                row[i] = -row[i]
    return U, V


def change_basis(d, U, V):
    """Coroots x -> U x and roots y -> V^T y, with V = U^-1: pairings are kept."""
    n = d.rank
    coroots = [[sum(U[i][k] * c[k] for k in range(n)) for i in range(n)] for c in d.coroots]
    roots = [[sum(V[k][i] * r[k] for k in range(n)) for i in range(n)] for r in d.roots]
    return {"rank": n, "roots": roots, "coroots": coroots}


def datum_dict(d):
    return {"rank": d.rank, "roots": [list(r) for r in d.roots], "coroots": [list(c) for c in d.coroots]}


def _file_name(desc, prefix=""):
    return prefix + desc.replace(":", "_") + ".json"


def build_inputs(workload, lib, seed, workdir):
    """The requests of one pass; writes census input files into workdir."""
    rd = lib.rootdatum
    if workload in ("ade-ladder", "scaled-flux"):
        ladder = LADDER if workload == "ade-ladder" else SCALED
        return [
            VerifyRequest(verify_key(desc, scales), rd.build_from_dynkin(rd.parse_descriptor(desc)), scales)
            for desc, scales in ladder
        ]
    rng = random.Random(f"census-inputs-{seed}")
    workdir.mkdir(parents=True, exist_ok=True)

    def write(name, obj):
        path = workdir / name
        path.write_text(json.dumps(obj, sort_keys=True) + "\n")
        return str(path)

    def cli(argv, check, base=None, files=None):
        files = files or {}
        key = " ".join(argv)
        return CliRequest(key, tuple(files.get(a, a) for a in argv), check, base)

    requests = []
    for desc in CENSUS_TYPES:
        for cmd in DATUM_COMMANDS:
            requests.append(cli([cmd, "--type", desc], "digest", desc))
        if census_verifies(desc):
            requests.append(cli(["verify", "--type", desc, "--no-timing"], "digest", desc))
    for desc in INPUT_TYPES:
        name = _file_name(desc)
        files = {name: write(name, datum_dict(rd.build_from_dynkin(rd.parse_descriptor(desc))))}
        for cmd in DATUM_COMMANDS:
            requests.append(cli([cmd, "--input", name], "digest", desc, files))
        requests.append(cli(["verify", "--input", name, "--no-timing"], "digest", desc, files))
    for desc in BASIS_TYPES:
        d = rd.build_from_dynkin(rd.parse_descriptor(desc))
        name = _file_name(desc, "gl_")
        files = {name: write(name, change_basis(d, *unimodular_pair(d.rank, rng)))}
        requests.append(cli(["info", "--input", name], "invariants", desc, files))
        requests.append(cli(["verify", "--input", name, "--no-timing"], "invariants", desc, files))
    for name, obj in MALFORMED.items():
        files = {name: write(name, obj)}
        requests.append(cli(["verify", "--input", name, "--no-timing"], "rejected", files=files))
    return requests


def pass_orders(workload, requests, seed):
    """Yield the request order of each successive pass: the ladders in turn,
    the census in a seeded shuffle."""
    rng = random.Random(f"census-order-{seed}")
    while True:
        yield rng.sample(requests, len(requests)) if workload == "census" else list(requests)
