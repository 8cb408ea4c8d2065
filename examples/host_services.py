#!/usr/bin/env python3
"""Host software attaching to a built network (slides 11-12).

The cluster builds the network-resident stack only; everything the
paper draws above it — AmpDC registered memory, AmpThreads remote
execution, the AmpIP datagram personality, AmpFiles — is constructed by
whoever uses it, on the nodes that use it.  Each endpoint claims its
own message channel on that node's messenger (RDMA 8, THREADS 6,
GENERAL 0; AmpFiles rides the cache and claims none).

Run:  python examples/host_services.py
"""

from repro import AmpNetCluster
from repro.hostapi import AmpDC
from repro.services import AmpFiles, AmpIP, AmpThreads


def main() -> None:
    cluster = AmpNetCluster(n_nodes=4, n_switches=2, seed=11)
    cluster.start()
    cluster.run_until_ring_up()
    sim, nodes = cluster.sim, cluster.nodes

    # AmpDC: node 2 registers host memory, node 0 DMAs straight into it.
    dc = {i: AmpDC(nodes[i]) for i in (0, 2)}
    frames = dc[2].register_region("frames", 256)
    done = dc[0].rdma_write(2, "frames", 16, b"pixels from node 0")
    cluster.run(until=done.delivered)
    print(f"RDMA: node 2's region holds {frames.read(16, 18)!r} "
          f"after {frames.writes} remote write")

    # AmpThreads: node 3 exposes an entry point, node 0 runs it there.
    threads = {i: AmpThreads(nodes[i]) for i in (0, 3)}

    def checksum(node, args):
        yield node.sim.timeout(2_000)  # the remote thread does some work
        return sum(args).to_bytes(2, "little")

    threads[3].register("checksum", checksum)

    # AmpIP: a datagram echo server on node 1, port 7.
    ip = {i: AmpIP(nodes[i]) for i in (0, 1)}
    server, client = ip[1].socket(7), ip[0].socket(4000)

    def echo():
        (src, src_port), payload = yield from server.recvfrom()
        server.sendto(src, src_port, payload.upper())

    # AmpFiles: two nodes publish, a third lists and reads its replica.
    files = {i: AmpFiles(nodes[i]) for i in (1, 2, 3)}
    files[1].write_file("motd", b"attach yourself")
    files[2].write_file("hosts", b"0 1 2 3")

    out = {}

    def host0():
        total = yield from threads[0].spawn(3, "checksum", bytes([1, 2, 3, 250]))
        out["checksum"] = int.from_bytes(total, "little")
        client.sendto(1, 7, b"ping")
        _addr, out["echo"] = yield from client.recvfrom()

    def host3():
        yield sim.timeout(60 * cluster.tour_estimate_ns)
        out["listing"] = files[3].list_files()
        out["motd"] = yield from files[3].read_file("motd")

    for proc in (echo(), host0(), host3()):
        sim.process(proc)
    cluster.run(until=sim.now + 120 * cluster.tour_estimate_ns)

    print(f"threads: checksum computed on node 3 = {out['checksum']}")
    print(f"AmpIP: echo server answered {out['echo']!r}")
    print(f"files: node 3 lists {out['listing']} and reads {out['motd']!r}")


if __name__ == "__main__":
    main()
