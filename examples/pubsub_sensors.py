#!/usr/bin/env python3
"""AmpSubscribe: a sensor fan-out running through failures (slide 12).

Nodes 0-2 publish sensor readings on topics; every node subscribes to a
dashboard view.  Mid-run a switch dies; the ring heals and publications
keep flowing — subscribers observe a short gap, never a lost reliable
publication.

Run:  python examples/pubsub_sensors.py
"""

import struct

from repro import AmpNetCluster
from repro.analysis import fmt_ns
from repro.services import AmpSubscribe


def main() -> None:
    cluster = AmpNetCluster(n_nodes=6, n_switches=4, seed=3)
    cluster.start()
    cluster.run_until_ring_up()
    sim = cluster.sim

    # Every node runs a little dashboard on its own pub/sub endpoint.
    pubsub = {i: AmpSubscribe(node) for i, node in cluster.nodes.items()}
    dashboards = {i: {} for i in cluster.nodes}
    for node_id, endpoint in pubsub.items():
        def on_reading(topic, payload, publisher, node_id=node_id):
            (value,) = struct.unpack("<d", payload)
            dashboards[node_id][topic] = (value, publisher)

        # One topic per sensor: pub/sub imposes no global order between
        # different publishers on one topic, so shared topics would give
        # last-writer-races across dashboards.
        endpoint.subscribe("sensors/temp/0", on_reading)
        endpoint.subscribe("sensors/temp/2", on_reading)
        endpoint.subscribe("sensors/pressure/1", on_reading)

    published = {"count": 0}

    def sensor(node_id: int, topic: str, base: float):
        for k in range(40):
            value = base + 0.1 * k
            pubsub[node_id].publish(topic, struct.pack("<d", value))
            published["count"] += 1
            yield sim.timeout(100_000)  # 10 kHz sensors

    sim.process(sensor(0, "sensors/temp/0", 20.0))
    sim.process(sensor(1, "sensors/pressure/1", 101.3))
    sim.process(sensor(2, "sensors/temp/2", 22.0))

    # Fail a switch mid-stream.
    def saboteur():
        yield sim.timeout(1_500_000)
        active = set(cluster.current_roster().hop_switches)
        victim = sorted(active)[0]
        print(f"t={fmt_ns(sim.now)}: switch {victim} loses power")
        cluster.fail_switch(victim)

    sim.process(saboteur())

    cluster.run(until=sim.now + 8_000_000)
    cluster.run_until_ring_up()
    cluster.run(until=sim.now + 200 * cluster.tour_estimate_ns)

    print(f"publications: {published['count']}")
    for node_id in sorted(dashboards):
        views = {t.split("sensors/")[1]: v for t, v in dashboards[node_id].items()}
        print(f"  node {node_id} dashboard: {views}")
    agreeing = len(
        {tuple(sorted(d.items())) for d in dashboards.values()}
    )
    print(f"dashboards in agreement across all nodes: {agreeing == 1}")
    roster = cluster.current_roster()
    print(f"ring healed on switches {sorted(set(roster.hop_switches))}, "
          f"all {roster.size} nodes present")


if __name__ == "__main__":
    main()
