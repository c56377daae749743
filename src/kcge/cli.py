"""Command-line interface: JSON in, JSON (or CSV) out.

Exit codes: 0 success, 2 validation problem (malformed JSON, NaN or Inf
amplitudes, bad normalization, dimension mismatch, a non-integer or
overflowing number), 3 budget refusal, 64 unknown subcommand. Diagnostics
go to stderr only; results go to stdout or --out.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .classify import classify, cross_check
from .core import (
    DIM_BUDGET,
    PartySubset,
    Tolerance,
    apply_local_operator,
    partial_trace,
    state_from_dict,
    state_to_dict,  # noqa: F401  (perfbench/tracing.py wraps kcge.cli.state_to_dict)
)
from .disentangle import build_disentangling_unitary, two_depth_decompose
from .errors import BudgetExceededError
from .network import NetworkGraph, network_bound
from .states import family_from_dict
from .witness import (
    exact_radius,
    ghz_witness,
    w4_visibility_curves,
    w4_witness,
    werner_visibility_threshold,
    werner_zero_crossing,
)


def _load_json(path: str):
    """Parse a JSON file with the cyclic garbage collector paused: a 2^16
    state decodes into 65536 two-element lists, whose allocation would
    otherwise trigger full collections that find nothing to free. The
    collector's prior state is restored however the parse ends."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    finally:
        if was_enabled:
            gc.enable()


def _emit(payload: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _emit_json(obj, out: str | None) -> None:
    """Emit ``obj`` byte for byte as ``json.dumps(obj, sort_keys=True,
    indent=2)`` plus a newline, where dict values may be complex ndarrays,
    written as nested ``[re, im]`` lists (the state JSON format)."""
    _emit(_json_text(obj, 0) + "\n", out)


def _json_text(value, level: int) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` as it reads at indent
    ``level``, where dicts may hold complex ndarrays at any depth."""
    if isinstance(value, np.ndarray):
        return _array_text(value, level)
    if isinstance(value, dict) and value:
        pad = "\n" + "  " * (level + 1)
        items = (
            pad + json.dumps(key) + ": " + _json_text(value[key], level + 1)
            for key in sorted(value)
        )
        return "{" + ",".join(items) + "\n" + "  " * level + "}"
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + "  " * level)


def _array_text(value: np.ndarray, level: int) -> str:
    """A complex ndarray as indent-2 nested lists of ``[re, im]`` pairs at
    indent ``level``. Pairs whose two float64 words are zero share one
    literal; each run of live pairs (``-0.0`` is live) within an innermost
    list is one text, scattered into place. Each list is one join."""
    arr = np.ascontiguousarray(np.atleast_1d(value), dtype=np.complex128)
    words = arr.view(np.uint64).reshape(arr.shape + (2,))
    live = (words[..., 0] | words[..., 1]) != 0
    joined = np.zeros_like(live)  # a live pair right after a live pair of its list
    joined[..., 1:] = live[..., 1:] & live[..., :-1]
    depth = level + value.ndim
    texts = np.empty(live.shape, dtype=object)
    texts.fill(_list_text(["0.0", "0.0"], depth))  # np.full would copy the str per pair
    texts[live & ~joined] = _live_text(arr, live, joined, depth).split("\0")
    pieces, keep = texts[~joined].tolist(), ~joined
    del texts  # so each level's joins free the texts of the level below
    for axis in reversed(range(value.ndim)):
        ends = np.cumsum(keep.sum(-1)).tolist()
        pieces = [_list_text(pieces[a:b], level + axis) for a, b in zip([0] + ends, ends)]
        keep = np.ones(value.shape[:axis], dtype=bool)
    return pieces[0]


def _live_text(arr: np.ndarray, live: np.ndarray, joined: np.ndarray, depth: int) -> str:
    """The ``live`` pairs of ``arr`` at indent ``depth`` by one ``%`` over a
    compact template: a pair ``joined`` to the one before follows it after a
    comma, any other after a NUL. A helper so the numbers go before the split."""
    pair = _list_text(["%s", "%s"], depth)
    glue = np.array(["\0" + pair, ",\n" + "  " * depth + pair], dtype=object)
    template = "".join(glue[joined[live].view(np.int8)].tolist())[1:]
    text = template % tuple(arr[live].view(np.float64).tolist())  # str of a float is its repr
    if np.isfinite(arr).all():
        return text
    return text.replace("nan", "NaN").replace("inf", "Infinity")  # no other "n" in text


def _list_text(items: list, level: int) -> str:
    """An indent-2 JSON list at indent ``level`` of already written items."""
    if not items:
        return "[]"
    pad = "\n" + "  " * (level + 1)
    parts = ["," + pad] * (2 * len(items) + 1)  # one join: the items are copied once
    parts[0], parts[1::2], parts[-1] = "[" + pad, items, "\n" + "  " * level + "]"
    return "".join(parts)


def _split(text: str, convert) -> list:
    """The comma-separated entries of ``text``, each through ``convert``."""
    return [convert(x) for x in text.split(",") if x.strip() != ""]


def _generate(args):
    family = family_from_dict(_load_json(args.family))
    state = family.build(budget=args.budget_dim)
    return {"dims": list(state.dims), "amps": state.amps}


def _classify(args):
    state = state_from_dict(_load_json(args.state))
    tol = Tolerance(rank_cutoff=args.tol)
    return classify(state, tol, max_k=args.max_k, budget_dim=args.budget_dim).to_dict()


def _disentangle(args):
    state = state_from_dict(_load_json(args.state))
    cut = PartySubset.of(_split(args.cut, int), state.n)
    tol = Tolerance(rank_cutoff=args.tol)
    unitary = build_disentangling_unitary(state, cut, args.free, tol)
    output = apply_local_operator(state, unitary, cut)
    freed = partial_trace(output, PartySubset((args.free,), state.n))
    fidelity = float(np.real(freed.matrix[0, 0]))
    gram = unitary.conj().T @ unitary
    return {
        "cut": list(cut.members),
        "free": args.free,
        "unitary": unitary,
        "residual": 1.0 - fidelity,
        "freed_fidelity": fidelity,
        "unitarity_error": float(np.max(np.abs(gram - np.eye(gram.shape[0])))),
        "output_state": {"dims": list(output.dims), "amps": output.amps},
    }


def _decompose(args):
    state = state_from_dict(_load_json(args.state))
    tol = Tolerance(rank_cutoff=args.tol)
    dec = two_depth_decompose(state, tol, pivot=args.pivot, freed=args.freed)
    rebuilt = dec.prepare(state.dims)
    return {
        "pivot": dec.pivot,
        "freed": dec.freed,
        "degenerate": dec.degenerate,
        "layer1": {"parties": list(dec.layer1_parties.members), "matrix": dec.layer1},
        "layer2": {"parties": list(dec.layer2_parties.members), "matrix": dec.layer2},
        "reconstruction_error": float(np.max(np.abs(rebuilt.amps - state.amps))),
    }


def _witness(args):
    coeffs = _split(args.a, float)
    ignored = {"ghz": {"--level": args.level}, "w4": {"--n": args.n, "--d": args.d}}
    for flag, value in ignored[args.family].items():
        if value is not None:
            raise ValueError(f"{flag} does not apply to the {args.family} witness")
    if args.family == "ghz":
        if args.n is None:
            raise ValueError("ghz witness needs --n")
        spec = ghz_witness(args.n, 2 if args.d is None else args.d, coeffs)
    else:
        spec = w4_witness(2 if args.level is None else args.level, coeffs)
    result = {
        "family": args.family,
        "level": spec.level,
        "radius": spec.radius,
        "dims": list(spec.target.dims),
        "provenance": spec.provenance,
    }
    if args.family == "w4":
        # The closed form stays in "radius"; at level 1 it is below the
        # exact radius, so a product state can drive that witness negative.
        result["exact_radius"] = exact_radius(spec.target, spec.level)
    if args.werner:
        dim = spec.target.total_dim
        result["werner_visibility_threshold"] = werner_visibility_threshold(spec.radius, dim)
        result["werner_zero_crossing"] = werner_zero_crossing(spec.radius, dim)
    return result


# Largest fig4 grid: one CSV row per point, about 1 MB of text at the budget.
GRID_BUDGET = 10**4


def _fig4(args):
    if args.grid < 1:
        raise ValueError("grid must be positive")
    if args.grid > GRID_BUDGET:
        raise BudgetExceededError(f"fig4: grid of {args.grid} points exceeds budget {GRID_BUDGET}")
    step = (math.pi / 2) / (args.grid + 1)
    rows = w4_visibility_curves([(i + 1) * step for i in range(args.grid)])
    lines = ["theta,r2,r1,v2,v1"] + [",".join(repr(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def _network(args):
    return network_bound(NetworkGraph.from_dict(_load_json(args.graph))).to_dict()


def _cross_check(args):
    graph = NetworkGraph.from_dict(_load_json(args.graph))
    edge_states = None
    if args.states is not None:
        data = _load_json(args.states)
        if not isinstance(data, list):
            raise ValueError("edge states JSON must be a list of state objects")
        edge_states = [state_from_dict(obj) for obj in data]
    tol = Tolerance(rank_cutoff=args.tol)
    return cross_check(graph, edge_states, tol=tol, budget=args.budget_dim).to_dict()


class Command(NamedTuple):
    """One subcommand: its line in ``USAGE``, the ``_OPTIONS`` keys of its
    parser (``main`` adds ``--out`` to every one), and the function that
    turns the parsed args into the JSON object, or CSV text, to write. The
    functions call the library through this module's names at call time,
    so a wrapper put on ``kcge.cli`` sees every call."""

    help: str
    options: tuple[str, ...]
    run: Callable


# Every option of every command, declared once: flag -> add_argument keywords.
_OPTIONS = {
    "--family": dict(required=True, help="family spec JSON file"),
    "--state": dict(required=True, help="state JSON file"),
    "--graph": dict(required=True, help="network JSON file"),
    "--states": dict(help="edge-state JSON list"),
    "--cut": dict(required=True, help="comma-separated party indices"),
    "--free": dict(type=int, required=True),
    "--pivot": dict(type=int, default=0),
    "--freed": dict(type=int, default=1),
    "family": dict(choices=["ghz", "w4"]),
    "--a": dict(required=True, help="comma-separated coefficients"),
    "--n": dict(type=int, help="party count (ghz)"),
    "--d": dict(type=int, help="local dimension (ghz, default 2)"),
    "--level": dict(type=int, help="witness level (w4, default 2)"),
    "--werner": dict(action="store_true", help="include visibility data"),
    "--grid": dict(type=int, default=200, help="number of grid points"),
    "--max-k": dict(type=int),
    "--tol": dict(type=float, default=1e-9, help="relative rank cutoff"),
    "--budget-dim": dict(type=int, default=DIM_BUDGET),
    "--out": dict(help="write output here instead of stdout"),
}

_COMMANDS = {
    "generate": Command(
        "build a named-family state and emit its state JSON", ("--family", "--budget-dim"), _generate
    ),
    "classify": Command(
        "connection-level report for a state JSON",
        ("--state", "--max-k", "--budget-dim", "--tol"),
        _classify,
    ),
    "disentangle": Command(
        "cut-local unitary freeing one party", ("--state", "--cut", "--free", "--tol"), _disentangle
    ),
    "decompose": Command(
        "two-layer preparation circuit for a state",
        ("--state", "--pivot", "--freed", "--tol"),
        _decompose,
    ),
    "witness": Command(
        "closed-form witness radii (ghz | w4), optional Werner data",
        ("family", "--a", "--n", "--d", "--level", "--werner"),
        _witness,
    ),
    "fig4": Command("noisy four-party W visibility table as CSV", ("--grid",), _fig4),
    "network": Command("graph-level connection bound for a network JSON", ("--graph",), _network),
    "cross-check": Command(
        "compare the graph bound against the state classifier",
        ("--graph", "--states", "--budget-dim", "--tol"),
        _cross_check,
    ),
}

USAGE = (
    "usage: kcge <command> [options]\n\ncommands:\n"
    + "".join(f"  {name:<11}  {row.help}\n" for name, row in _COMMANDS.items())
    + "\nrun `kcge <command> --help` for options\n"
)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] in ("-h", "--help"):
        sys.stdout.write(USAGE)
        return 0
    if argv and argv[0] == "--version":
        sys.stdout.write(f"kcge {__version__}\n")
        return 0
    if not argv or argv[0] not in _COMMANDS:
        sys.stderr.write(USAGE)
        return 64
    row = _COMMANDS[argv[0]]
    # One parser per call: building every command's would cost more than
    # the parse itself on small requests.
    parser = argparse.ArgumentParser(prog=f"kcge {argv[0]}", allow_abbrev=False)
    for flag in (*row.options, "--out"):
        parser.add_argument(flag, **_OPTIONS[flag])
    try:
        args = parser.parse_args(argv[1:])
        result = row.run(args)
        if isinstance(result, str):
            _emit(result, args.out)
        else:
            _emit_json(result, args.out)
    except SystemExit as exc:  # argparse errors, and --help
        return 0 if exc.code == 0 else 2
    except BudgetExceededError as exc:
        sys.stderr.write(f"budget refused: {exc}\n")
        return 3
    except json.JSONDecodeError as exc:
        sys.stderr.write(
            f"malformed JSON: line {exc.lineno} column {exc.colno}: {exc.msg}\n"
        )
        return 2
    except (ValueError, TypeError, KeyError, OverflowError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
