"""What bringing a ring up costs the host (docs/architecture.md, "What a
flooded cell costs"): every distinct rostering cell is parsed once,
however many times it arrives, and a switch spends one schedule entry
on flooding it, however many ports it fans out to.  Wall time follows
the counts (``BENCHMARK.json`` times ``setup_s``); this pins the counts
themselves — and that the simulated side did not move to buy them.
"""

from repro import AmpNetCluster
from repro.rostering import wire
from repro.scenarios.runner import trace_digest

N = 32
#: EXPLORE and REPORT from every node, and the master's COMMIT chunks
DISTINCT_CELLS = N + N + -(-N // 3)

#: pinned before bring-up learned any of this: the simulated timeline
RING_UP_NS = 62_104
TRACE_DIGEST = "67e8fb0fb94ca53575a688630b945717"


def test_bring_up_costs_what_its_distinct_cells_cost(monkeypatch):
    parsed = []
    parse = wire._parse
    monkeypatch.setattr(
        wire, "_parse", lambda payload: parsed.append(payload) or parse(payload))
    monkeypatch.setattr(wire, "_decoded", {})
    monkeypatch.setattr(wire, "_flood_keys", {})

    cluster = AmpNetCluster(n_nodes=N, n_switches=2, seed=3)
    cluster.start()
    ring_up_ns = cluster.run_until_ring_up()

    # Each cell reaches every node but its origin through each switch...
    switches = cluster.topology.switches
    arrivals = sum(sw.counters["flooded"] for sw in switches)
    assert arrivals == 2 * DISTINCT_CELLS * (N - 1)
    # ...and is parsed once, its flood key worked out once.
    assert len(parsed) == len(set(parsed)) == DISTINCT_CELLS
    assert len(wire._flood_keys) == DISTINCT_CELLS

    # 241.5 entries per node (382.2 while a flood was an entry per
    # egress): what is left is one arrival per cell per node per switch,
    # 2 * 75 * 31 of the 7,729.
    assert cluster.sim.events_processed / N <= 250

    assert ring_up_ns == RING_UP_NS
    roster = cluster.current_roster()
    assert roster.round_no == 1
    assert roster.members == tuple(range(N))
    assert roster.hop_switches == (0,) * N
    assert all(n.roster == roster for n in cluster.nodes.values())
    assert trace_digest(cluster.tracer) == TRACE_DIGEST
