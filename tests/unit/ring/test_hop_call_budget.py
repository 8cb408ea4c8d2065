"""A ring hop's budget in Python calls (``python -m repro.perf X --calls``).

``test_hop_entry_budget.py`` pins the schedule entries a hop costs; this
pins the interpreter's work inside them.  A transit forward on a quiet
ring runs the MAC's emit, the link's transmit and arrival at the switch,
the switch's forward and reservation, the arrival at the next node, that
node's dispatch into the MAC, the MAC's receive, its delivery of the
heartbeat up the stack and AmpDK's handler for it, and a kernel post per
schedule entry: fourteen calls, and the heartbeat's insertion and AmpDK's
timers spread over the forwards.  The count is exact at a seed, so the
budget needs no stopwatch and no tolerance for the box.
"""

from repro import AmpNetCluster
from repro.analysis import total_mac_counter
from repro.perf import BUILTINS, count_calls

TOURS = 400


def test_a_quiet_ring_spends_under_nineteen_python_calls_per_hop():
    """Sixteen nodes, heartbeats only, as in the entry budget.  Before
    the port stopped being a trampoline between link and device (and
    the hop path stopped calling ``Counter.incr``) this read 27.6."""
    cluster = AmpNetCluster(n_nodes=16, n_switches=2, seed=3, trace=False)
    cluster.start()
    cluster.run_until_ring_up()
    sim = cluster.sim
    sim.run(until=sim.now + 10 * cluster.tour_estimate_ns)  # certify, settle
    forwards = total_mac_counter(cluster, "tx_transit")
    _, calls = count_calls(
        sim.run, until=sim.now + TOURS * cluster.tour_estimate_ns)
    forwards = total_mac_counter(cluster, "tx_transit") - forwards
    assert forwards > 5_000
    python = sum(n for layer, n in calls.items() if layer != BUILTINS)
    assert python / forwards <= 19
