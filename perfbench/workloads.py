"""Workload inputs: one request cycle per workload, built from a seed.

A request is one call into a public entry point, either ``kcge.cli.main``
on JSON files or a library function. Every request carries a check that
compares its output with a value from ``expect``. The seed draws amplitudes,
coefficients, angles and phases; the sizes and the mix of request kinds are
fixed per workload, so every seed asks for the same amount of work.

Entry points are looked up on their modules at call time, so the tracer can
wrap them there.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
from dataclasses import dataclass
from functools import cache
from itertools import count, zip_longest
from typing import Callable

import numpy as np

import expect

cli = importlib.import_module("kcge.cli")
core = importlib.import_module("kcge.core")
disentangle = importlib.import_module("kcge.disentangle")
witness = importlib.import_module("kcge.witness")

FIDELITY_FLOOR = 1.0 - 1e-9
RECONSTRUCTION_CEIL = 1e-9
CLOSED_FORM_ATOL = 1e-12
CHANNEL_ATOL = 1e-9


@dataclass
class Request:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    label: str = ""  # input size or name, for the per-request record


def run_cli(argv):
    """One CLI request in this process: (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def cli_request(kind, argv, check_stdout, label=""):
    def check(out):
        code, text = out
        return code == 0 and check_stdout(text)

    return Request(kind, lambda: run_cli(argv), check, label)


def interleave(*groups):
    """Round-robin over the groups so cheap and heavy requests mix along the
    cycle; each group item is a list of requests kept together."""
    out = []
    for items in zip_longest(*groups):
        for item in items:
            if item is not None:
                out.extend(item)
    return out


# --- inputs written by the benchmark itself ----------------------------------


def unit_vector(rng, size):
    z = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return z / np.linalg.norm(z)


def unitary(rng, dim):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    d = np.diag(r)
    return q * (d / np.abs(d))


def normalized(rng, size):
    a = rng.uniform(0.3, 1.0, size)
    return [float(x) for x in a / np.linalg.norm(a)]


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj))
    return path


def state_obj(dims, amps):
    amps = np.asarray(amps, dtype=complex)
    return {"dims": list(dims), "amps": np.stack([amps.real, amps.imag], axis=1).tolist()}


def ghz_amps(n, d, a):
    amps = np.zeros(d**n, dtype=complex)
    step = sum(d**i for i in range(n))
    for i, x in enumerate(a):
        amps[i * step] = x
    return amps


def dicke_amps(n, d, s):
    digits = np.indices((d,) * n).reshape(n, -1)
    mask = digits.sum(axis=0) == s
    return mask / math.sqrt(mask.sum()) + 0j


def grouped_product(n, factors):
    """Tensor product of factors (parties, slot dim, vector), regrouped so
    each party's slots form one qudit. Returns (dims, amps)."""
    joint = np.ones(1, dtype=complex)
    slots = []
    for parties, d, vec in factors:
        joint = np.kron(joint, vec)
        slots.extend((p, d) for p in parties)
    order = sorted(range(len(slots)), key=lambda i: slots[i][0])
    tensor = joint.reshape([d for _p, d in slots]).transpose(order)
    dims = [1] * n
    for p, d in slots:
        dims[p] *= d
    return tuple(dims), tensor.reshape(-1)


# --- topology corpus -----------------------------------------------------------
#
# Edge lists are written here rather than taken from kcge.network, with
# (i < j, multiplicity, local dim) sorted, which is the canonical order the
# edge states must follow.


def chain(n, mult=1, dim=2):
    return n, [(i, i + 1, mult, dim) for i in range(n - 1)]


def star(n, dim=2):
    return n, [(0, i, 1, dim) for i in range(1, n)]


def cycle(n, dim=2):
    return n, sorted((min(i, (i + 1) % n), max(i, (i + 1) % n), 1, dim) for i in range(n))


def complete(n):
    return n, [(i, j, 1, 2) for i in range(n) for j in range(i + 1, n)]


def grid(rows, cols):
    edges = []
    for r in range(rows):
        for c in range(cols):
            p = r * cols + c
            if c + 1 < cols:
                edges.append((p, p + 1, 1, 2))
            if r + 1 < rows:
                edges.append((p, p + cols, 1, 2))
    return rows * cols, sorted(edges)


def mixed_square():
    return 4, [(0, 1, 1, 3), (0, 3, 1, 2), (1, 2, 1, 2), (2, 3, 1, 3)]


def units(edges):
    return [((i, j), d) for i, j, mult, d in sorted(edges) for _ in range(mult)]


def network_level(n, edges):
    """Level of the joint state: every edge unit is a factor of rank d."""
    us = units(edges)
    return expect.factored_level(expect.factored_dims(n, us, [d for _p, d in us]), us)


# --- haar-scan -------------------------------------------------------------------


def haar_scan(rng, work, tiny):
    # (dims, requests per cycle). Only three requests are slower than the
    # 3^8 ones, so the 90th percentile falls inside the five 3^8 requests and
    # not on a boundary between sizes. n=13 is left out: with the default
    # BLAS threads one request takes longer than this whole cycle.
    mix = (
        [((2,) * 5, 1), ((2,) * 4, 2), ((3,) * 3, 3), ((2, 3) * 2, 1)]
        if tiny
        else [
            ((2,) * 12, 1),
            ((2,) * 11, 1),
            ((2,) * 10, 8),
            ((3,) * 7, 30),
            ((3,) * 8, 5),
            ((2, 3) * 5, 1),
        ]
    )
    groups = []
    for dims, count in mix:
        level = expect.haar_level(dims)
        group = []
        for i in range(count):
            path = write_json(
                os.path.join(work, f"haar-{len(dims)}-{dims[0]}{dims[1]}-{i}.json"),
                state_obj(dims, unit_vector(rng, math.prod(dims))),
            )
            group.append(
                [cli_request("classify", ["classify", "--state", path], _level_is(level),
                             "x".join(map(str, dims)))]
            )
        groups.append(group)
    return interleave(*groups)


def _level_is(level):
    return lambda text: json.loads(text)["max_cge_level"] == level


# --- zoo-prep, network half ----------------------------------------------------


def _zoo_families(rng, tiny):
    """(name, family spec, dims, expected level, support, extra check)."""
    fams = []

    def ghz(n, d):
        a = normalized(rng, d)
        spec = {"family": "ghz", "n": n, "d": d, "a": a}
        fams.append((f"ghz{n}x{d}", spec, (d,) * n, 1, d, ghz_amps(n, d, a)))

    def w(n):
        spec = {"family": "w_type", "n": n, "a": normalized(rng, n + 1)}
        fams.append((f"w{n}", spec, (2,) * n, 2, n + 1, None))

    def dicke(n, d, s):
        spec = {"family": "dicke", "n": n, "d": d, "s": s}
        fams.append(
            (f"dicke{n}x{d}s{s}", spec, (d,) * n, expect.dicke_level(n, d, s),
             expect.dicke_support(n, d, s), None)
        )

    def cluster(n, edges):
        edges = [[i, j, float(rng.uniform(0.2, 1.3))] for i, j in edges]
        factors = [((i, j), 2) for i, j, _t in edges]
        dims = expect.factored_dims(n, factors, [2] * len(factors))
        phases = [[p, 0, 1, float(rng.uniform(0, 2 * math.pi))] for p in range(n) if dims[p] >= 4]
        spec = {"family": "cluster", "edges": edges, "phases": phases}
        fams.append((f"cluster{n}", spec, dims, expect.factored_level(dims, factors),
                     2 ** len(factors), None))

    def graph(n, epr, hyper):
        epr = [[i, j, float(rng.uniform(0.2, 1.3))] for i, j in epr]
        hyper = [[list(m), float(rng.uniform(0.2, 1.3))] for m in hyper]
        factors = [((i, j), 2) for i, j, _t in epr] + [(tuple(m), 2) for m, _t in hyper]
        dims = expect.factored_dims(n, factors, [2] * len(factors))
        phases = [
            [p, list(range(int(math.log2(dims[p])))), float(rng.uniform(0, 2 * math.pi))]
            for p in range(n) if dims[p] >= 4
        ]
        spec = {"family": "graph", "epr_edges": epr, "ghz_edges": hyper, "phases": phases}
        fams.append((f"graph{n}", spec, dims, expect.factored_level(dims, factors),
                     2 ** len(factors), None))

    def product(dims):
        fams.append((f"product{len(dims)}x{dims[0]}", {"family": "product", "dims": list(dims)},
                     dims, 0, 1, None))

    ring = lambda n: [(i, (i + 1) % n) for i in range(n)]  # noqa: E731
    if tiny:
        ghz(4, 2), w(4), dicke(6, 2, 2), cluster(3, ring(3))
        graph(4, [(0, 1), (2, 3)], [(0, 2, 3)]), product((2,) * 4)
        return fams
    # Budget edge, 2^16 dims.
    ghz(16, 2), w(16), dicke(16, 2, 8), dicke(10, 3, 6), dicke(8, 4, 6), cluster(8, ring(8))
    # 2^14 to 3^9 dims.
    ghz(9, 3), ghz(7, 4), w(14), dicke(14, 2, 7), dicke(9, 3, 4), dicke(7, 4, 5)
    graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)], [(0, 2, 4), (1, 3, 4)])
    graph(7, [(0, 1), (2, 3), (4, 5)], [(0, 2, 4, 6), (1, 3, 5, 6)])
    product((2,) * 14)
    return fams


def _generated_state_ok(path, dims, support, amps):
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if obj["dims"] != list(dims):
        return False
    pairs = np.array(obj["amps"], dtype=float)
    vec = pairs[:, 0] + 1j * pairs[:, 1]
    if abs(np.linalg.norm(vec) - 1.0) > 1e-9 or np.count_nonzero(vec) != support:
        return False
    return amps is None or bool(np.allclose(vec, amps, atol=1e-12))


def zoo_network(rng, work, tiny):
    pairs = []
    for idx, (name, spec, dims, level, support, amps) in enumerate(_zoo_families(rng, tiny)):
        fam = write_json(os.path.join(work, f"{name}-{idx}.family.json"), spec)
        out = os.path.join(work, f"{name}-{idx}.state.json")
        wrote = lambda text, out=out, dims=dims, s=support, a=amps: (  # noqa: E731
            text == "" and _generated_state_ok(out, dims, s, a))
        pairs.append([
            cli_request("generate", ["generate", "--family", fam, "--out", out], wrote, name),
            cli_request("classify", ["classify", "--state", out], _level_is(level), name),
        ])

    bound_corpus = (
        [chain(4), complete(4), cycle(5)]
        if tiny
        else [chain(10, mult=2), star(12), cycle(12), complete(12), grid(3, 4),
              complete(8), cycle(9, dim=3), grid(2, 5), complete(6), chain(7)]
    )
    bounds = []
    for idx, (n, edges) in enumerate(bound_corpus):
        path = write_json(os.path.join(work, f"bound-{idx}.json"),
                          {"n": n, "edges": [list(e) for e in edges]})
        level, conn = network_level(n, edges), _connectivity(n, edges)
        check = lambda text, n=n, level=level, conn=conn: _bound_ok(json.loads(text), n, level, conn)  # noqa: E731
        bounds.append([cli_request("network", ["network", "--graph", path], check, f"graph{idx}")])

    cross_corpus = (
        [chain(3), mixed_square()]
        if tiny
        else [chain(8), star(8), cycle(7), complete(4), grid(2, 3), mixed_square(),
              chain(4, mult=2), star(5, dim=3)]
    )
    # Odd requests pass random edge states, which have the same generic
    # ranks as the default maximally entangled pairs.
    crosses = []
    for idx in range(2 if tiny else 10):
        n, edges = cross_corpus[idx % len(cross_corpus)]
        path = write_json(os.path.join(work, f"cross-{idx}.json"),
                          {"n": n, "edges": [list(e) for e in edges]})
        argv = ["cross-check", "--graph", path]
        if idx % 2:
            states = [state_obj((d, d), unit_vector(rng, d * d)) for _p, d in units(edges)]
            argv += ["--states", write_json(os.path.join(work, f"cross-{idx}.states.json"), states)]
        level = network_level(n, edges)
        crosses.append([cli_request("cross-check", argv,
                                    lambda text, level=level: _cross_ok(json.loads(text), level),
                                    f"graph{idx % len(cross_corpus)}")])
    return interleave(pairs, bounds, crosses)


def _connectivity(n, edges):
    """Edge-disjoint path connectivity of a corpus graph. Every family in the
    corpus (chains, stars, cycles, grids, complete graphs) is as connected
    as its least connected party allows, so this is the minimum degree."""
    degree = [0] * n
    for i, j, mult, _d in edges:
        degree[i] += mult
        degree[j] += mult
    return min(degree)


def _bound_ok(report, n, level, conn):
    bound = report["cge_upper_bound"]
    return report["n"] == n and report["connectivity"] == conn and level <= bound <= n // 2


def _cross_ok(record, level):
    return (
        record["classifier_level"] == level
        and record["consistent"] is True
        and record["network_bound"]["cge_upper_bound"] >= level
    )


# --- zoo-prep, preparation half ------------------------------------------------


def prep_witness(rng, work, tiny):
    counter = count()

    def save(dims, amps):
        return write_json(os.path.join(work, f"prep-{next(counter)}.json"), state_obj(dims, amps))

    def decompose(dims):
        path = save(dims, unit_vector(rng, math.prod(dims)))
        ok = lambda text: json.loads(text)["reconstruction_error"] <= RECONSTRUCTION_CEIL  # noqa: E731
        return [cli_request("decompose", ["decompose", "--state", path], ok,
                            "x".join(map(str, dims)))]

    def free(dims, amps, rank, cut, party):
        # The freeing unitary exists only when the rank fits the cut.
        assert rank <= math.prod(dims[p] for p in cut) // dims[party]
        path = save(dims, amps)
        argv = ["disentangle", "--state", path, "--cut", ",".join(map(str, cut)), "--free", str(party)]

        def ok(text):
            out = json.loads(text)
            return out["cut"] == list(cut) and out["freed_fidelity"] >= FIDELITY_FLOOR

        return [cli_request("disentangle", argv, ok, f"{math.prod(dims)}dims")]

    def ghz_free(n, cut):
        return free((2,) * n, ghz_amps(n, 2, normalized(rng, 2)), 2, cut, cut[0])

    def dicke_free(n, s, cut):
        rank = expect.dicke_rank(n, 2, s, len(cut))
        return free((2,) * n, dicke_amps(n, 2, s), rank, cut, cut[-1])

    def network_free(graph, cut, party):
        n, edges = graph
        us = units(edges)
        dims, amps = grouped_product(n, [(p, d, unit_vector(rng, d * d)) for p, d in us])
        return free(dims, amps, expect.factored_rank(us, cut), cut, party)

    def witness_cli(family, n=None, d=2, level=2):
        if family == "ghz":
            a = normalized(rng, d)
            radius, dim = expect.ghz_radius(a), d**n
            argv = ["witness", "ghz", "--a", ",".join(map(repr, a)), "--n", str(n), "--d", str(d)]
        else:
            a = normalized(rng, 5)
            radius, dim = expect.w4_radius(level, a), 16
            argv = ["witness", "w4", "--a", ",".join(map(repr, a)), "--level", str(level)]

        def ok(text):
            out = json.loads(text)
            return (
                abs(out["radius"] - radius) <= CLOSED_FORM_ATOL
                and abs(out["werner_visibility_threshold"] - expect.werner_threshold(radius, dim)) <= CLOSED_FORM_ATOL
                and abs(out["werner_zero_crossing"] - expect.werner_crossing(radius, dim)) <= CLOSED_FORM_ATOL
            )

        return [cli_request("witness", argv + ["--werner"], ok)]

    def fig4(points):
        step = (math.pi / 2) / (points + 1)

        def ok(text):
            lines = text.strip().split("\n")
            if lines[0] != "theta,r2,r1,v2,v1" or len(lines) != points + 1:
                return False
            for i, line in enumerate(lines[1:]):
                row = [float(x) for x in line.split(",")]
                want = expect.fig4_row((i + 1) * step)
                if max(abs(x - y) for x, y in zip(row, want)) > CLOSED_FORM_ATOL:
                    return False
            return True

        return [cli_request("fig4", ["fig4", "--grid", str(points)], ok)]

    def werner(n):
        a = normalized(rng, 2)
        spec = witness.ghz_witness(n, 2, a)
        v = float(rng.uniform(0.2, 0.95))
        want = expect.werner_witness_value(expect.ghz_radius(a), v, 2**n)

        def call():
            return witness.witness_value(spec, witness.werner_state(spec.target, v))

        return [Request("werner", call, lambda value: abs(value - want) <= CLOSED_FORM_ATOL,
                        f"2^{n}")]

    def channel(n, k_connection):
        dims = (2,) * n
        state = core.PureState(dims, unit_vector(rng, 2**n))
        cut = tuple(sorted(int(p) for p in rng.choice(n, size=2, replace=False)))
        rest = tuple(p for p in range(n) if p not in cut)
        probs = rng.dirichlet([1.0, 1.0])
        terms = []
        for p in probs:
            cut_op = math.sqrt(p) * unitary(rng, 4)
            if k_connection:
                terms.append([(cut, cut_op)] + [((q,), unitary(rng, 2)) for q in rest])
            else:
                terms.append([(cut, cut_op), (rest, unitary(rng, 2 ** len(rest)))])
        subset = core.PartySubset(cut, n)

        def call():
            rho = state.density()
            if k_connection:
                ch = disentangle.KConnectionChannel(
                    subset, tuple((t[0][1], tuple(m for _q, m in t[1:])) for t in terms))
                return disentangle.apply_k_connection_channel(rho, ch)
            ch = disentangle.BiseparableChannel(subset, tuple((t[0][1], t[1][1]) for t in terms))
            return disentangle.apply_biseparable_channel(rho, ch)

        @cache
        def want():
            return expect.apply_local_kraus(np.outer(state.amps, state.amps.conj()), dims, terms)

        def ok(out):
            return float(np.max(np.abs(out.matrix - want()))) <= CHANNEL_ATOL

        return [Request("channel", call, ok, f"{'kconn' if k_connection else 'bisep'} 2^{n}")]

    if tiny:
        return interleave(
            [decompose((2,) * 4), decompose((3,) * 3)],
            [ghz_free(4, (0, 1)), dicke_free(5, 1, (0, 1)), network_free(chain(4), (0, 1), 0)],
            [witness_cli("ghz", 3), witness_cli("w4", level=1), witness_cli("w4", level=2)],
            [fig4(5)],
            [werner(4)],
            [channel(3, False), channel(3, True)],
        )
    decomposes = (
        [decompose((2,) * 8) for _ in range(2)] + [decompose((2,) * 7) for _ in range(3)]
        + [decompose((3,) * 5) for _ in range(3)]
    )
    frees = [
        ghz_free(16, (0, 1)), ghz_free(12, (0, 1, 2)), ghz_free(12, (3, 7, 11)),
        ghz_free(10, (0, 1, 2, 3)), ghz_free(10, (2, 5)),
        dicke_free(12, 2, (0, 1, 2)), dicke_free(12, 2, (4, 6, 9)), dicke_free(14, 1, (0, 1)),
        dicke_free(10, 3, (0, 1, 2, 3)), dicke_free(10, 3, (1, 4, 6, 8)),
        network_free(chain(6), (0, 1), 0), network_free(star(5), (0, 1), 1),
        network_free(cycle(6), (0, 1, 2), 1), network_free(grid(2, 3), (0, 1), 0),
    ]
    witnesses = (
        [witness_cli("ghz", n, d) for n in range(4, 11, 2) for d in (2, 3)]
        + [witness_cli("w4", level=level) for level in (1, 2) for _ in range(3)]
    )
    werners = [werner(10)] + [werner(9) for _ in range(2)] + [werner(8) for _ in range(3)]
    channels = [channel(n, kc) for n in (6, 7, 8) for kc in (False, True) for _ in range(2)]
    return interleave(decomposes, frees, witnesses, [fig4(200) for _ in range(4)], werners, channels)


def zoo_prep(rng, work, tiny):
    """The network half and the preparation half, alternating."""
    zoo, prep = zoo_network(rng, work, tiny), prep_witness(rng, work, tiny)
    return interleave([[r] for r in zoo], [[r] for r in prep])


WORKLOAD_INPUTS = {"haar-scan": haar_scan, "zoo-prep": zoo_prep}


def build(workload, seed, work, tiny=False):
    """Write the workload's inputs under ``work`` and return its request cycle."""
    rng = np.random.default_rng([seed, list(WORKLOAD_INPUTS).index(workload)])
    return WORKLOAD_INPUTS[workload](rng, work, tiny)
