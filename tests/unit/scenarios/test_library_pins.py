"""Every library scenario's declarative definition, pinned by hash.

The sha256 of ``json.dumps(spec.to_dict(), sort_keys=True)`` for all 25
library entries, computed at 433b326 — ahead of the cut that made
``RouterConfig`` the one router description and moved
``TopologySpec`` into ``repro.routing``.  ``to_dict()`` lands in bench
emissions and is what ``benchmarks/e2e/workloads.py::PINS`` hashes for
the 14 scenarios the benchmark runs, so a refactor of the spec classes
must reproduce it byte for byte.

A scenario whose load is *meant* to change re-pins here (and, for those
14, in a ``[benchmark]`` PR that edits ``benchmarks/e2e``).
"""

import hashlib
import json
import pathlib
import runpy

import pytest

from repro.scenarios import get_scenario, scenario_names

PINS = {
    "quiet_ring":
        "12a27952252bfcbb2201fab20c0322d53ffa08703b1c7f8c02ce283d2b4b23bc",
    "slide7_mixed":
        "4d97d05f8135fc80b0d8db694086e27f8d998b197dd4372290755aa453b1608a",
    "broadcast_storm":
        "e0b64a4fbd8ea72964dcfc787cc3c49fc62a947f7cd20162f9713764e6153e6b",
    "kernel_storm":
        "2b1726a8e79771c989f17e62568793e56ab09f29cbaab453afd44c5222871995",
    "diurnal_ramp":
        "059523d689a0f4d2a2f0e3fa4b00137d1777d81f9ab61aa5a867be2341c3b979",
    "failover_under_load":
        "a0f410dfb69ec8ffe1fdbdea0d9974fc6f483fee6d3988de65111cff005e7b2a",
    "churn_under_load":
        "cd9cf19c0bb1aca6a12b6e64f088214f8af213498cfc7dd97fc897e3d51c5d19",
    "partition_heal_under_load":
        "1851ee7b168f1a9f88e188a9975543a2eb7df87ae663a2dff1965293a39fe010",
    "large_ring_64":
        "60e367951c948b2bdf94d2c5b8ac5b2650d745d294cc2da5f36fc43766f74e07",
    "large_ring_128":
        "ef2a9e618db9e99cfc917fc0e349e4fbe569ca8b8d9f126bbd64222949828173",
    "large_ring_256":
        "e62e6e22206e5da9bdaace6bdd9eb853498b786c7a9e0454bcf6b3c32badbff8",
    "two_ring_256":
        "04808b43e119c7f88c281ccfaf20b2e3aa52a012941af62dc88e515331e7d1e4",
    "four_ring_512":
        "8f5f94dcc3bd1648fc186e36d312008d27db25a2cc5aa081c6e2a54128c96d8f",
    "routed_partition_heal":
        "5572d769ca612afdbbe8fa9945fca52bb06a9264b97241ed7e5ba505264025d8",
    "redundant_router_failover":
        "9dbe5d171c4fb29ee183d417abe3ad6241af63d3cf8875086b9d9d5f6a510409",
    "two_path_256":
        "0309e1522deed3335ec95b57cbd2aedf85b7c37e87c41539cb2e840976aa71a3",
    "chaos_router_storm":
        "681f0281aac8e67466e4d907090f1281a7343fd87f647bd99d23f09e537b414b",
    "flapping_spine":
        "a7ba4130d0d527908363492cb37f28dcabdd0670279ef4916f157d9a348a1509",
    "breaker_asymmetric_partition":
        "ad115c4e079ae43928d27a0930567de236bff9094b87abb9ce9472dfccb72e87",
    "bulkhead_noisy_neighbor":
        "c75517a39c55b78d51882fef7feb495f56787f28bcbe912654289ca4071b3cf9",
    "zipf_cache_warmup":
        "ac002c6bec59cd0ddbea61be4e247f5d1799f10b00e79c52d501ba608dfa0b98",
    "cache_offload_star":
        "131f95612ae520c773b2b372d6d93a948314d26a9b8cd6c41b23e5ca62abe7c8",
    "mesh_routed_small":
        "7b717043eec0b19501f85089fdd5e5cdb9a7bbe9e1d55d8f6fb3179b28871d13",
    "mesh_1k":
        "f1b10870448f51106dd278663d4ba58c6cea12359ef8c6221701e110f3b61c76",
    "mesh_4k":
        "38734dcca9fbb2d65eba576841951169ce6036747a8dff23b87cabe6913edb37",
}


def test_every_library_scenario_is_pinned():
    assert set(PINS) == set(scenario_names())


@pytest.mark.parametrize("name", sorted(PINS))
def test_library_scenario_definition_is_unchanged(name):
    blob = json.dumps(get_scenario(name).to_dict(), sort_keys=True)
    assert hashlib.sha256(blob.encode("utf-8")).hexdigest() == PINS[name]


def test_pins_agree_with_the_benchmark():
    """The 14 scenarios ``benchmarks/e2e`` runs are pinned there too;
    the two tables must say the same thing (read, never edited, here)."""
    root = pathlib.Path(__file__).resolve().parents[3]
    e2e = runpy.run_path(str(root / "benchmarks" / "e2e" / "workloads.py"))
    assert len(e2e["PINS"]) == 14
    assert {name: PINS[name] for name in e2e["PINS"]} == e2e["PINS"]
