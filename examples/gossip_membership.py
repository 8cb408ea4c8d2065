#!/usr/bin/env python3
"""Gossip membership: decentralized failure detection on a 16-node ring.

Brings up a 16-node dual-redundant segment with the SWIM-style gossip
layer enabled, crashes a node, and watches the verdict spread
epidemically: the first neighbour suspects, suspicion gossips outward,
the suspicion window expires, and within a handful of protocol periods
every survivor has marked the victim DEAD — no coordinator involved.
Then the node powers back up and its fresh incarnation number overrides
every tombstone in the cluster.

Run:  python examples/gossip_membership.py
"""

from repro import AmpNetCluster
from repro.analysis import fmt_ns
from repro.membership.gossip import FANOUT


def main() -> None:
    # 1. Sixteen nodes, two switches, gossip membership on.
    cluster = AmpNetCluster(n_nodes=16, n_switches=2, seed=42, membership=True)
    cluster.start()
    t_up = cluster.run_until_ring_up()
    cfg = cluster._membership_cfg
    print(f"ring up at {fmt_ns(t_up)}; gossip period {fmt_ns(cfg.period_ns)}, "
          f"fanout {FANOUT}, staleness {fmt_ns(cfg.stale_after_ns)}, "
          f"suspicion window {fmt_ns(cfg.suspicion_window_ns)}")

    # Let the epidemic discover everyone.
    cluster.run_until_membership_converged()
    view = cluster.nodes[0].membership.view
    print(f"node 0 knows {len(view.ids())} members, all alive: "
          f"{view.alive_ids() == list(range(16))}")

    # 2. Crash node 13 and watch the verdict spread.
    victim = 13
    t_crash = cluster.sim.now
    cluster.crash_node(victim)
    print(f"\nnode {victim} crashed at t={fmt_ns(t_crash)}")
    cluster.run_until_membership_converged(dead={victim})

    observers = [f"member-{n.node_id}" for n in cluster.live_nodes()]
    detect = cluster.convergence.time_to_detect(victim, since=t_crash)
    converge = cluster.convergence.time_to_converge(victim, observers, since=t_crash)
    print(f"first DEAD verdict after {fmt_ns(detect)} "
          f"({detect / cfg.period_ns:.1f} periods)")
    print(f"all {len(observers)} survivors agree after {fmt_ns(converge)} "
          f"({converge / cfg.period_ns:.1f} periods)")
    suspects = cluster.convergence.verdict_times(victim, "SUSPECT", since=t_crash)
    first_suspect = min(suspects.values()) - t_crash if suspects else None
    if first_suspect is not None:
        print(f"(first suspicion was at +{fmt_ns(first_suspect)})")
    overhead = cluster.membership_overhead()
    print(f"gossip overhead so far: {overhead['per_node_msgs']:.0f} messages "
          f"per node, {overhead['gossip_bytes_tx']} digest bytes total")

    # 3. Power it back up: the fresh incarnation beats every tombstone.
    t_back = cluster.sim.now
    cluster.recover_node(victim)
    cluster.run_until_ring_up()
    cluster.run_until_membership_converged()
    back = cluster.nodes[0].membership.view.get(victim)
    print(f"\nnode {victim} recovered at t={fmt_ns(t_back)}; "
          f"rejoined in {fmt_ns(cluster.sim.now - t_back)} "
          f"as incarnation {back.incarnation} ({back.status.name} everywhere)")


if __name__ == "__main__":
    main()
