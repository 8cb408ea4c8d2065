"""What a node keeps once its ring is up, and what the runner keeps of a
run (docs/architecture.md, "What a node keeps").

A rostering round's REPORT list is scratch: sized by the segment while
the round runs, gone at install, with only the round's master
remembered.  Completed transfers are remembered as one int each, in one
plain dict.  The scenario runner reads the tracer's streamed digest and
per-category counts, so it keeps no record.
"""

import gc
import hashlib
import tracemalloc

import pytest

from repro.scenarios import ScenarioRunner, get_scenario
from repro.sim import trace_line

#: Traced heap per node of ``mesh_routed_small`` after bring-up plus a
#: cluster-broadcast burst: 32.0 kB measured (40.9 kB while the report
#: list held 256 slots and completed transfers were tuples in an
#: OrderedDict).
BUDGET_PER_NODE = 36_000


def test_a_brought_up_node_keeps_no_round_scratch_and_little_heap():
    tracemalloc.start()
    try:
        cluster = get_scenario("mesh_routed_small").build_cluster()
        cluster.start()
        cluster.run_until_ring_up()
        nodes = list(cluster.nodes.values())
        for node in nodes[::3]:
            node.messenger.send_cluster_broadcast(bytes(100), 13)
        cluster.run(until=cluster.sim.now + 400 * cluster.tour_estimate_ns)
        gc.collect()
        heap = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert sum(n.messenger.counters["messages_received"] for n in nodes) > 0
    assert all(n.agent._reports == [] for n in nodes)
    assert all(not n.agent._assembler._parts for n in nodes)
    # ``is_master`` still names each segment's round master: its lowest
    # member, the one node of the segment that answers True.
    for seg in range(len(cluster.segments)):
        members = cluster.segment(seg).current_roster().members
        masters = [m for m in members if cluster.nodes[(seg, m)].agent.is_master]
        assert masters == [min(members)]
    assert heap / len(nodes) <= BUDGET_PER_NODE


def test_the_runner_keeps_counts_not_records():
    runner = ScenarioRunner(get_scenario("failover_under_load"))
    result = runner.run()
    tracer = runner.cluster.tracer
    assert tracer.records == []
    assert result.counters["trace_records"] == sum(tracer.counts.values()) > 0
    assert result.counters["faults_fired"] == tracer.counts["fault"] == 1
    assert result.trace_digest == tracer.digest()


@pytest.mark.parametrize("name", [
    "quiet_ring", "failover_under_load", "churn_under_load",
])
def test_the_streamed_digest_is_the_hash_of_the_kept_lines(name):
    """With retention on, the records hash, line by line, to the digest
    the tracer streamed while they were made."""

    def keep(phase):
        if phase == "built":
            runner.cluster.tracer.retain = True

    runner = ScenarioRunner(get_scenario(name), phase_hook=keep)
    result = runner.run()
    tracer = runner.cluster.tracer
    fresh = hashlib.blake2b(digest_size=16)
    for rec in tracer.records:
        fresh.update(trace_line(rec).encode("utf-8"))
    assert len(tracer.records) == result.counters["trace_records"]
    assert tracer.digest() == fresh.hexdigest() == result.trace_digest
