"""Spans and counts at the layer boundaries of kcge, from outside the package.

``install`` replaces public functions on the module (or class) attribute
that their callers look up with a wrapper that records a span, and returns
a function that puts the originals back. Nothing inside ``src/`` changes,
and an untraced run installs nothing.

A span is (request id, span id, parent id, name, start, end). A layer's
self time is its span time minus the time of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
import types
from collections import Counter, defaultdict

# (module, attribute path, span name). One span name may sit on several
# attributes when callers reach the same function by different names.
PATCHES = (
    ("kcge.cli", "main", "cli.main"),
    ("kcge.cli", "classify", "classify.classify"),
    ("kcge.classify", "classify", "classify.classify"),
    ("kcge.classify", "is_k_cge", "classify.is_k_cge"),
    ("kcge.classify", "schmidt_rank", "core.schmidt_rank"),
    ("kcge.core", "bipartite_matrix", "core.bipartite_matrix"),
    ("kcge.disentangle", "schmidt", "core.schmidt"),
    ("kcge.core", "DensityMatrix.__post_init__", "core.density_validate"),
    ("kcge.core", "complete_basis", "core.complete_basis"),
    ("kcge.disentangle", "expand_to_full", "core.expand_to_full"),
    ("kcge.cli", "state_from_dict", "core.state_from_dict"),
    ("kcge.core", "state_from_dict", "core.state_from_dict"),
    ("kcge.cli", "state_to_dict", "core.state_to_dict"),
    ("kcge.states", "StateFamily.build", "states.build"),
    ("kcge.states", "network_joint_state", "states.assemble"),
    ("kcge.cli", "network_bound", "network.bound"),
    ("kcge.network", "network_bound", "network.bound"),
    ("kcge.network", "chain_connectivity", "network.connectivity"),
    ("kcge.cli", "cross_check", "network.cross_check"),
    ("kcge.cli", "build_disentangling_unitary", "disentangle.unitary"),
    ("kcge.cli", "two_depth_decompose", "disentangle.decompose"),
    ("kcge.disentangle", "apply_biseparable_channel", "disentangle.channel"),
    ("kcge.disentangle", "apply_k_connection_channel", "disentangle.channel"),
    ("kcge.witness", "werner_state", "witness.werner"),
    ("kcge.witness", "witness_value", "witness.value"),
    ("kcge.cli", "w4_visibility_curves", "witness.curves"),
)

# Per-layer metric -> span whose self time it reports.
SELF_TIME = {
    "classify.scan_self_ms": "classify.is_k_cge",
    "classify.level_self_ms": "classify.classify",
    "core.rank_kernel_ms": "core.schmidt_rank",
    "core.reshape_ms": "core.bipartite_matrix",
    "core.schmidt_ms": "core.schmidt",
    "core.density_validate_ms": "core.density_validate",
    "core.basis_completion_ms": "core.complete_basis",
    "core.expand_ms": "core.expand_to_full",
    "core.decode_ms": "core.state_from_dict",
    "core.encode_ms": "core.state_to_dict",
    "cli.self_ms": "cli.main",
    "cli.argparse_ms": "cli.argparse",
    "cli.json_load_ms": "cli.json_load",
    "cli.json_dumps_ms": "cli.json_dumps",
    "states.build_ms": "states.build",
    "states.assemble_ms": "states.assemble",
    "network.bound_ms": "network.bound",
    "network.connectivity_ms": "network.connectivity",
    "network.crosscheck_ms": "network.cross_check",
    "disentangle.unitary_ms": "disentangle.unitary",
    "disentangle.decompose_ms": "disentangle.decompose",
    "disentangle.channel_ms": "disentangle.channel",
    "witness.werner_ms": "witness.werner",
    "witness.value_ms": "witness.value",
    "witness.curves_ms": "witness.curves",
}

# Exact counts; they must repeat for a given seed.
COUNTS = (
    "classify.subsets_scanned",
    "classify.subsets_in_levels",
    "core.rank_calls",
    "core.reshape_bytes_computed",
)


class Tracer:
    """Spans of the current request (``request`` is its id) and counts,
    kept in memory until ``dump``."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._next_id = 0
        self.request = None

    def begin(self, name):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((sid, parent, name, time.perf_counter()))

    def end(self):
        sid, parent, name, start = self._stack.pop()
        self.spans.append((self.request, sid, parent, name, start, time.perf_counter()))

    def parent_name(self):
        return self._stack[-1][2] if self._stack else None

    def reset(self):
        self.spans = []
        self.counts = Counter()

    def summary(self):
        """Counts plus self time in ms per span name."""
        child = defaultdict(float)
        for _req, _sid, parent, _name, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_ms = defaultdict(float)
        for _req, sid, _parent, name, start, end in self.spans:
            self_ms[name] += (end - start - child[sid]) * 1e3
        return dict(self.counts), dict(self_ms)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for req, sid, parent, name, start, end in self.spans:
                fh.write(json.dumps([req, sid, parent, name, start, end]) + "\n")


def _spanned(tracer, name, fn, count=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if count is not None:
            count(tracer, *args, **kwargs)
        tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end()

    return wrapper


def _count_rank(tracer, *_args, **_kwargs):
    tracer.counts["core.rank_calls"] += 1
    if tracer.parent_name() == "classify.is_k_cge":
        tracer.counts["classify.subsets_scanned"] += 1


def _count_level(tracer, state, k, *_args, **_kwargs):
    tracer.counts["classify.subsets_in_levels"] += math.comb(state.n, k)


def _count_reshape(tracer, state, *_args, **_kwargs):
    # Computed from the array size: the matrix handed to the kernel.
    tracer.counts["core.reshape_bytes_computed"] += state.amps.nbytes


COUNTERS = {
    "core.schmidt_rank": _count_rank,
    "classify.is_k_cge": _count_level,
    "core.bipartite_matrix": _count_reshape,
}


def install(tracer):
    """Wrap every patch point; return a function that restores them."""
    saved = []

    def put(owner, attr, value):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    for module_name, path, name in PATCHES:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        put(owner, attr, _spanned(tracer, name, getattr(owner, attr), COUNTERS.get(name)))

    cli = importlib.import_module("kcge.cli")
    json_mod, argparse_mod = cli.json, cli.argparse

    class TracedParser(argparse_mod.ArgumentParser):
        parse_args = _spanned(tracer, "cli.argparse", argparse_mod.ArgumentParser.parse_args)

    put(cli, "json", types.SimpleNamespace(
        load=_spanned(tracer, "cli.json_load", json_mod.load),
        dumps=_spanned(tracer, "cli.json_dumps", json_mod.dumps),
        JSONDecodeError=json_mod.JSONDecodeError,
    ))
    put(cli, "argparse", types.SimpleNamespace(ArgumentParser=TracedParser))

    def uninstall():
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)

    return uninstall
