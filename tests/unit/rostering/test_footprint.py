"""What a node remembers of rostering and of its peers (docs/architecture.md,
"What a node remembers").  Every member keeps a round's REPORTs, what it
has relayed, and a last-heard instant per heartbeat peer, so the cluster
total grows with the square of the ring.  Kept as a bit or a list slot
per peer, a node's share is a few kB; as hash tables it was 175 B per
peer per node at n=128 (22.2 kB a node).
"""

import tracemalloc

from repro.scenarios import get_scenario

#: Where per-peer state lives: the agent, the roster it installs, AmpDK.
SOURCES = ("rostering/agent.py", "rostering/roster.py", "kernel/ampdk.py")
#: Bytes per peer per node, live at ring-up (63 B measured; 175 B as
#: hash tables).
BUDGET_PER_PEER = 96


def test_per_peer_state_at_ring_up_is_small():
    tracemalloc.start()
    try:
        cluster = get_scenario("large_ring_128").build_cluster()
        cluster.start()
        cluster.run_until_ring_up()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    live = sum(
        stat.size for stat in snapshot.statistics("filename")
        if stat.traceback[0].filename.replace("\\", "/").endswith(SOURCES)
    )
    n = len(cluster.nodes)
    assert n == 128
    assert live / n / (n - 1) <= BUDGET_PER_PEER
