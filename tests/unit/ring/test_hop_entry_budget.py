"""A ring hop's budget in schedule entries (docs/architecture.md, "The
event scheduler"): three while nothing contends — the MAC's emit, the
arrival at the switch, the arrival at the next node — and six when
every stage queues.  Wall time follows the count (``BENCHMARK.json``
times it); this pins the count itself, which no stopwatch is needed for.
"""

from repro import AmpNetCluster
from repro.analysis import total_mac_counter
from repro.perf import PerfProbe

TOURS = 400


def test_a_quiet_ring_spends_three_entries_per_hop():
    """Sixteen nodes, heartbeats only.  Every frame a MAC puts on the
    fibre — fifteen transit forwards and the insertion, per heartbeat —
    is one hop to the next node; the data path's entries over those come
    to three and a sixteenth, the sixteenth being the one pick an
    insertion costs.

    The figure ``python -m repro.perf`` prints divides *all* window
    entries by the *transit* forwards alone, as ROADMAP item 1 does: at
    this size AmpDK's per-node timers and the insertion's four entries
    are spread over only fifteen forwards per heartbeat, so it reads
    3.45 here (6.65 before the uncontended hop was fused) and falls
    towards three as the ring grows — 3.03 on the 255-node ring.
    """
    cluster = AmpNetCluster(n_nodes=16, n_switches=2, seed=3, trace=False)
    cluster.start()
    cluster.run_until_ring_up()
    sim = cluster.sim
    sim.run(until=sim.now + 10 * cluster.tour_estimate_ns)  # certify, settle
    forwards = total_mac_counter(cluster, "tx_transit")
    inserted = total_mac_counter(cluster, "tx_inserted")
    probe = PerfProbe(sim, per_kind=True)
    probe.start()
    sim.run(until=sim.now + TOURS * cluster.tour_estimate_ns)
    report = probe.stop()
    forwards = total_mac_counter(cluster, "tx_transit") - forwards
    inserted = total_mac_counter(cluster, "tx_inserted") - inserted
    assert forwards == 15 * inserted > 5_000
    data_path = sum(count for layer, count in report.by_layer.items()
                    if layer.startswith(("phys.", "ring.")))
    assert 3.0 <= data_path / (forwards + inserted) <= 3.1
    assert report.events / forwards <= 3.5
