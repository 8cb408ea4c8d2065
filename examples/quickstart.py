#!/usr/bin/env python3
"""Quickstart: bring up an AmpNet segment, move data, survive a failure.

Builds the slide-14 quad-redundant network (six nodes, four switches),
lets it self-organize into a logical ring, pushes some traffic, then cuts
a fibre and watches rostering heal the ring in about two ring-tour times
— with every in-flight message still delivered.

Run:  python examples/quickstart.py
"""

from repro import AmpNetCluster
from repro.analysis import availability_timeline, fmt_ns, render_timeline
from repro.services import AmpFiles
from repro.transport import Channel


def main() -> None:
    # 1. Build and boot the slide-14 topology.
    cluster = AmpNetCluster(n_nodes=6, n_switches=4, fiber_m=50.0, seed=7)
    cluster.start()
    t_up = cluster.run_until_ring_up()
    roster = cluster.current_roster()
    print(f"ring up at t={fmt_ns(t_up)}: members={list(roster.members)} "
          f"via switches {sorted(set(roster.hop_switches))}")

    # 2. Reliable messaging between hosts.
    received = []
    cluster.nodes[5].messenger.on_message(
        Channel.GENERAL + 10,  # a free channel
        lambda src, data, ch: received.append((src, data)),
    )
    handle = cluster.nodes[0].messenger.send(
        5, b"hello from node 0 over the insertion ring", Channel.GENERAL + 10
    )
    cluster.run(until=handle.delivered)
    print(f"message confirmed after {fmt_ns(cluster.sim.now - t_up)}; "
          f"node 5 got {received[0][1]!r}")

    # 3. The network cache: write once, read anywhere.  Host software
    #    attaches itself to a node; the cluster builds only the network.
    AmpFiles(cluster.nodes[2]).write_file("motd", b"AmpNet never loses your data")
    cluster.run(until=cluster.sim.now + 50 * cluster.tour_estimate_ns)
    print(f"node 4 reads the replicated file: "
          f"{AmpFiles(cluster.nodes[4]).read_file_now('motd')!r}")

    # 4. Cut the fibre carrying node 0's active hop.  Hardware detects
    #    the carrier loss, rostering floods, the largest possible ring
    #    is rebuilt and certified.
    victim_switch = roster.hop_switch_from(0)
    t_cut = cluster.sim.now
    cluster.cut_link(0, victim_switch)
    cluster.run_until_reroster()
    healed = cluster.current_roster()
    print(f"fibre to switch {victim_switch} cut at t={fmt_ns(t_cut)}; "
          f"ring healed in {fmt_ns(cluster.sim.now - t_cut)} "
          f"(~{(cluster.sim.now - t_cut) / cluster.tour_estimate_ns:.1f} ring tours)")
    print(f"new roster round {healed.round_no}, all six nodes still in: "
          f"{sorted(healed.members) == list(range(6))}")

    # 5. Traffic still flows; nothing was lost.
    handle = cluster.nodes[0].messenger.send(
        5, b"still here after the cut", Channel.GENERAL + 10
    )
    cluster.run(until=handle.delivered)
    print(f"post-failure message delivered; total messages at node 5: "
          f"{len(received)}")

    # 6. The whole story, as an operator would read it.
    print()
    print(render_timeline(availability_timeline(cluster, since=t_cut - 1),
                          title="What just happened"))


if __name__ == "__main__":
    main()
