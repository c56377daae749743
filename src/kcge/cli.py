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

import numpy as np

from . import __version__
from .classify import classify
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
from .network import NetworkGraph, network_bound, cross_check
from .states import family_from_dict
from .witness import (
    exact_radius,
    ghz_witness,
    w4_visibility_curves,
    w4_witness,
    werner_visibility_threshold,
    werner_zero_crossing,
)

USAGE = """usage: kcge <command> [options]

commands:
  generate     build a named-family state and emit its state JSON
  classify     connection-level report for a state JSON
  disentangle  cut-local unitary freeing one party
  decompose    two-layer preparation circuit for a state
  witness      closed-form witness radii (ghz | w4), optional Werner data
  fig4         noisy four-party W visibility table as CSV
  network      graph-level connection bound for a network JSON
  cross-check  compare the graph bound against the state classifier

run `kcge <command> --help` for options
"""


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


def _parse_indices(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip() != ""]


def _parse_floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip() != ""]


def _tolerance(args) -> Tolerance:
    return Tolerance(rank_cutoff=args.tol)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol", type=float, default=1e-9, help="relative rank cutoff")
    parser.add_argument("--out", default=None, help="write output here instead of stdout")


def _cmd_generate(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="kcge generate")
    parser.add_argument("--family", required=True, help="family spec JSON file")
    parser.add_argument("--out", default=None)
    parser.add_argument("--budget-dim", type=int, default=DIM_BUDGET)
    args = parser.parse_args(argv)
    family = family_from_dict(_load_json(args.family))
    state = family.build(budget=args.budget_dim)
    _emit_json({"dims": list(state.dims), "amps": state.amps}, args.out)
    return 0


def _cmd_classify(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="kcge classify")
    parser.add_argument("--state", required=True, help="state JSON file")
    parser.add_argument("--max-k", type=int, default=None)
    parser.add_argument("--budget-dim", type=int, default=DIM_BUDGET)
    _add_common(parser)
    args = parser.parse_args(argv)
    state = state_from_dict(_load_json(args.state))
    report = classify(state, _tolerance(args), max_k=args.max_k, budget_dim=args.budget_dim)
    _emit_json(report.to_dict(), args.out)
    return 0


def _cmd_disentangle(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="kcge disentangle")
    parser.add_argument("--state", required=True)
    parser.add_argument("--cut", required=True, help="comma-separated party indices")
    parser.add_argument("--free", type=int, required=True)
    _add_common(parser)
    args = parser.parse_args(argv)
    state = state_from_dict(_load_json(args.state))
    cut = PartySubset.of(_parse_indices(args.cut), state.n)
    tol = _tolerance(args)
    unitary = build_disentangling_unitary(state, cut, args.free, tol)
    output = apply_local_operator(state, unitary, cut)
    freed = partial_trace(output, PartySubset((args.free,), state.n))
    fidelity = float(np.real(freed.matrix[0, 0]))
    gram = unitary.conj().T @ unitary
    _emit_json(
        {
            "cut": list(cut.members),
            "free": args.free,
            "unitary": unitary,
            "residual": 1.0 - fidelity,
            "freed_fidelity": fidelity,
            "unitarity_error": float(np.max(np.abs(gram - np.eye(gram.shape[0])))),
            "output_state": {"dims": list(output.dims), "amps": output.amps},
        },
        args.out,
    )
    return 0


def _cmd_decompose(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="kcge decompose")
    parser.add_argument("--state", required=True)
    parser.add_argument("--pivot", type=int, default=0)
    parser.add_argument("--freed", type=int, default=1)
    _add_common(parser)
    args = parser.parse_args(argv)
    state = state_from_dict(_load_json(args.state))
    dec = two_depth_decompose(state, _tolerance(args), pivot=args.pivot, freed=args.freed)
    rebuilt = dec.prepare(state.dims)
    error = float(np.max(np.abs(rebuilt.amps - state.amps)))
    _emit_json(
        {
            "pivot": dec.pivot,
            "freed": dec.freed,
            "degenerate": dec.degenerate,
            "layer1": {
                "parties": list(dec.layer1_parties.members),
                "matrix": dec.layer1,
            },
            "layer2": {
                "parties": list(dec.layer2_parties.members),
                "matrix": dec.layer2,
            },
            "reconstruction_error": error,
        },
        args.out,
    )
    return 0


def _cmd_witness(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="kcge witness")
    parser.add_argument("family", choices=["ghz", "w4"])
    parser.add_argument("--a", required=True, help="comma-separated coefficients")
    parser.add_argument("--n", type=int, default=None, help="party count (ghz)")
    parser.add_argument("--d", type=int, default=2, help="local dimension (ghz)")
    parser.add_argument("--level", type=int, default=2, help="witness level (w4)")
    parser.add_argument("--werner", action="store_true", help="include visibility data")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    coeffs = _parse_floats(args.a)
    if args.family == "ghz":
        if args.n is None:
            raise ValueError("ghz witness needs --n")
        spec = ghz_witness(args.n, args.d, coeffs)
    else:
        spec = w4_witness(args.level, coeffs)
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
    _emit_json(result, args.out)
    return 0


def _cmd_fig4(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="kcge fig4")
    parser.add_argument("--grid", type=int, default=200, help="number of grid points")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    if args.grid < 1:
        raise ValueError("grid must be positive")
    step = (math.pi / 2) / (args.grid + 1)
    thetas = [(i + 1) * step for i in range(args.grid)]
    rows = w4_visibility_curves(thetas)
    lines = ["theta,r2,r1,v2,v1"]
    for row in rows:
        lines.append(",".join(repr(x) for x in row))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _edge_states_from(path: str | None):
    if path is None:
        return None
    data = _load_json(path)
    if not isinstance(data, list):
        raise ValueError("edge states JSON must be a list of state objects")
    return [state_from_dict(obj) for obj in data]


def _cmd_network(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="kcge network")
    parser.add_argument("--graph", required=True, help="network JSON file")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    graph = NetworkGraph.from_dict(_load_json(args.graph))
    _emit_json(network_bound(graph).to_dict(), args.out)
    return 0


def _cmd_cross_check(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="kcge cross-check")
    parser.add_argument("--graph", required=True)
    parser.add_argument("--states", default=None, help="edge-state JSON list")
    parser.add_argument("--budget-dim", type=int, default=DIM_BUDGET)
    _add_common(parser)
    args = parser.parse_args(argv)
    graph = NetworkGraph.from_dict(_load_json(args.graph))
    record = cross_check(
        graph,
        _edge_states_from(args.states),
        tol=_tolerance(args),
        budget=args.budget_dim,
    )
    _emit_json(record.to_dict(), args.out)
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "classify": _cmd_classify,
    "disentangle": _cmd_disentangle,
    "decompose": _cmd_decompose,
    "witness": _cmd_witness,
    "fig4": _cmd_fig4,
    "network": _cmd_network,
    "cross-check": _cmd_cross_check,
}


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
    handler = _COMMANDS[argv[0]]
    try:
        return handler(argv[1:])
    except SystemExit as exc:  # argparse errors
        code = exc.code if isinstance(exc.code, int) else 2
        return 2 if code != 0 else 0
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


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
