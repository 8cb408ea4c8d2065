"""repro.perf: accounting correctness and the no-observer-effect contract.

The kernel's event accounting must never change what the kernel does:
a run with a PerfProbe attached (even with per-layer classification on)
has to produce the identical event sequence, trace timeline and
counters as a run without one — measuring may not perturb.
"""

import json
from pathlib import Path

from repro import AmpNetCluster
from repro.micropacket import BROADCAST, MicroPacket, MicroPacketType
from repro.perf import PerfProbe, PerfReport, layer_of
from repro.perf.__main__ import main
from repro.scenarios import get_scenario
from repro.scenarios.runner import ScenarioRunner, trace_digest
from repro.sim import Callback, Simulator


# ------------------------------------------------------------ accounting
def test_events_processed_counts_kernel_work():
    sim = Simulator()
    for k in range(5):
        sim.call_in(k * 10, lambda: None)
    sim.run()
    assert sim.events_processed == 5


def test_probe_window_and_report_fields():
    sim = Simulator()
    hits = []
    for k in range(100):
        sim.call_in(k * 7, hits.append, k)
    probe = PerfProbe(sim, per_kind=True)
    probe.start()
    sim.run()
    report = probe.stop()
    assert report.events == 100
    assert report.sim_ns == 99 * 7
    assert report.wall_s > 0
    assert report.events_per_sec > 0
    assert sum(report.by_layer.values()) == 100
    # stop() detaches the observer so later runs are unobserved.
    assert sim.on_event is None
    payload = report.to_dict()
    assert payload["events"] == 100 and "by_layer" in payload
    # Scheduler occupancy rides along: the schedule drained, so nothing
    # is pending, and this workload (gaps of 7ns) never left the lap.
    sched = payload["scheduler"]
    assert sched["pending_entries"] == 0
    assert sched["pending_instants"] == 0
    assert sched["overflow_spills"] == 0
    assert sched["instant_histogram"] == {}


def test_scheduler_snapshot_sees_resident_entries_and_spills():
    sim = Simulator()
    probe = PerfProbe(sim)
    probe.start()
    # Three entries at one instant, one at another, one past the lap
    # that holds now (the lap is [0, 8192) at t=0).
    for _ in range(3):
        sim.call_in(100, lambda: None)
    sim.call_in(200, lambda: None)
    sim.call_in(1_000_000, lambda: None)
    sched = probe.snapshot().scheduler
    assert sched["pending_entries"] == 5
    assert sched["pending_instants"] == 3
    assert sched["overflow_spills"] == 1
    assert sched["instant_histogram"] == {"1": 2, "3": 1}
    # Spills are a window delta: reopening the window zeroes them.
    probe.start()
    assert probe.snapshot().scheduler["overflow_spills"] == 0
    probe.stop()


def test_layer_classification():
    sim = Simulator()
    assert layer_of(Callback(test_events_processed_counts_kernel_work, ()))\
        .startswith("")  # a plain module function classifies without error
    timeout = sim.timeout(5)
    assert layer_of(timeout) == "sim.Timeout"


def test_switch_crossings_are_attributed_to_the_switch():
    """The switch owns its egress entries, so a crossing that queues is a
    ``phys.switch`` entry — not ``phys.port``, the module of the bound
    ``Port.send`` the per-frame entries used to name.  Floods always
    queue, and a flood is one entry however many ports it fans out to;
    ring traffic queues only behind one, and otherwise reserves the
    egress wire on arrival and costs the switch no entry at all."""
    cluster = AmpNetCluster(n_nodes=4, n_switches=1)
    cluster.start()
    (switch,) = cluster.topology.switches
    probe = PerfProbe(cluster.sim, per_kind=True)
    probe.start()  # from t=0: the rostering floods
    cluster.run_until_ring_up()
    bring_up = probe.snapshot().by_layer
    flooded, early = switch.counters["flooded"], switch.counters["forwarded"]
    still_crossing = sum(len(fifo) for fifo, _entry, _port in switch._crossing)
    assert flooded and not still_crossing
    floods, uneven = divmod(flooded, 3)  # four lit ports: a fan-out of three
    assert not uneven
    assert floods <= bring_up["phys.switch"] <= floods + early

    probe.start()  # ring up, floods over: ring traffic alone
    for node in cluster.nodes.values():
        node.mac.send(MicroPacket(
            ptype=MicroPacketType.DATA, src=node.node_id, dst=BROADCAST,
            payload=b"12345678"))
    cluster.run(until=cluster.sim.now + 20 * cluster.tour_estimate_ns)
    quiet = probe.stop().by_layer
    assert switch.counters["flooded"] == flooded
    assert switch.counters["forwarded"] - early >= 16
    assert "phys.switch" not in quiet
    assert "phys.port" not in bring_up and "phys.port" not in quiet


def test_no_committed_result_names_the_old_switch_attribution():
    results = Path(__file__).resolve().parents[3] / "benchmarks" / "results"
    stale = [p.name for p in sorted(results.glob("*.json"))
             if "phys.port" in p.read_text()]
    assert stale == []


# --------------------------------------------- measuring must not perturb
def _run_quiet(seed: int, probed: bool):
    spec = get_scenario("quiet_ring").with_seed(seed)
    state = {}

    def hook(phase):
        if phase == "built" and probed:
            probe = state["probe"] = PerfProbe(
                runner.cluster.sim, per_kind=True
            )
            probe.start()

    runner = ScenarioRunner(spec, phase_hook=hook)
    result = runner.run()
    events = runner.cluster.sim.events_processed
    return result, events, state.get("probe")


def test_perf_accounting_does_not_change_the_event_sequence():
    """Same seed, probe on vs off: identical timeline, counters and
    event totals — the microbench determinism contract."""
    plain, plain_events, _ = _run_quiet(11, probed=False)
    probed, probed_events, probe = _run_quiet(11, probed=True)
    assert probed.trace_digest == plain.trace_digest
    assert probed.counters == plain.counters
    assert probed_events == plain_events
    report = probe.stop()
    assert report.events > 0
    # The per-layer split accounts for every observed entry and sees the
    # hot layers of the stack.
    assert sum(report.by_layer.values()) == report.events
    assert any(layer.startswith("phys.link") for layer in report.by_layer)
    assert any(layer.startswith("ring.mac") for layer in report.by_layer)


# ------------------------------------------------------- the ring-up row
def test_profile_runner_reports_ring_up_as_its_own_window(tmp_path, capsys):
    """``python -m repro.perf`` prints bring-up beside the workload
    window — events, entries per node, posts past the lap — and writes it to
    ``--json``; total is still build through judgement."""
    out = tmp_path / "perf.json"
    assert main(["quiet_ring", "--per-kind", "--json", str(out)]) == 0
    text = capsys.readouterr().out
    assert text.index("total (") < text.index("ring-up (") < text.index(
        "workload window (")
    assert "entries / node" in text and "posts past lap" in text
    doc = json.loads(out.read_text())
    ring_up, workload, total = doc["ring_up"], doc["workload"], doc["total"]
    assert ring_up["nodes"] == 6
    assert ring_up["entries_per_node"] == round(ring_up["events"] / 6, 3)
    assert ring_up["scheduler"]["overflow_spills"] >= 0
    assert sum(ring_up["by_layer"].values()) == ring_up["events"]
    assert ring_up["by_layer"]["phys.switch"] > 0  # the floods
    assert "nodes" not in workload and "nodes" not in total
    assert ring_up["events"] + workload["events"] <= total["events"]


# ------------------------------------------------------------ the heap row
def test_profile_runner_reports_the_heap_per_node_by_layer(tmp_path, capsys):
    """``--heap`` prints and writes the live heap at ring-up and at the
    end, in bytes per node, by the layer that allocated it."""
    out = tmp_path / "heap.json"
    assert main(["quiet_ring", "--heap", "--json", str(out)]) == 0
    assert "traced heap, bytes per node (6 nodes)" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["nodes"] == 6
    for phase in ("ring_up", "end"):
        assert all(doc[phase][layer] > 0 for layer in (
            "phys", "ring", "rostering", "transport", "node"))
