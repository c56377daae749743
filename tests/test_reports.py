"""The JSON form of every report type, pinned in full on one small case each."""

import json

import pytest

from kcge import classify, ghz
from kcge.classify import compare_dicke_formula, cross_check
from kcge.network import NetworkGraph, chain_network, network_bound


def chain_trace(seed, grown):
    """The greedy trace of an end party of a chain: it fails alone and
    fires once its one neighbour joins."""
    return {
        "seed": seed,
        "degree": 1,
        "growth": [grown],
        "checks": [
            {"size": 1, "s_in": 0, "s_out": 1, "t": 0, "fires": False},
            {"size": 2, "s_in": 1, "s_out": 0, "t": 0, "fires": True},
        ],
        "first_firing_size": 2,
        "level_bound": 1,
    }


def chain_bound(n, last):
    return {
        "n": n,
        "degree_condition_size": 2,
        "connectivity": 1,
        "connectivity_biseparable_size": 1,
        "connectivity_applies": False,
        "connectivity_level_bound": 0,
        "cge_upper_bound": 1,
        "trace": [chain_trace(0, 1), chain_trace(last, last - 1)],
    }


CASES = {
    "classify_ghz4": (
        lambda: classify(ghz(4, 2, [2**-0.5, 2**-0.5])),
        {
            "max_cge_level": 1,
            "dims": [2, 2, 2, 2],
            "per_level": [
                {"k": 1, "is_cge": True, "witness": None, "witness_rank": None,
                 "witness_threshold": None, "implied": False},
                {"k": 2, "is_cge": False, "witness": [0, 1], "witness_rank": 2,
                 "witness_threshold": 2, "implied": False},
            ],
            "thresholds_used": [[1, 1], [2, 2]],
            "tolerance": {"rank_cutoff": 1e-09},
        },
    ),
    "network_bound_chain4": (lambda: network_bound(chain_network(4)), chain_bound(4, 3)),
    "cross_check_chain3": (
        lambda: cross_check(chain_network(3)),
        {"network_bound": chain_bound(3, 2), "classifier_level": 1, "consistent": True},
    ),
    "dicke_formula_6_2_3": (
        lambda: compare_dicke_formula(6, 2, 3),
        {"n": 6, "d": 2, "s": 3, "classifier_level": 2, "formula_level": 3,
         "exact_power": True, "matches": False},
    ),
    "network_graph": (
        lambda: NetworkGraph(3, ((2, 0, 1), (0, 1, 2, 3), (1, 2, 1))),
        {"n": 3, "edges": [[0, 1, 2, 3], [0, 2, 1, 2], [1, 2, 1, 2]]},
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_json_form(name):
    build, expected = CASES[name]
    d = build().to_dict()
    assert d == expected
    # A tuple anywhere in d would come back as a list and break equality.
    assert json.loads(json.dumps(d)) == d
