"""The rostering agent's relay rule against the rule it replaced.

A node relays each distinct rostering cell once (slide 16's "modified
flooding").  ``RosterAgent`` remembers what it has relayed this round as
bits — EXPLORE and REPORT one per origin, COMMIT a chunk mask per origin
— and lets a cell of any other round through.  The rule it replaced is
kept here as the reference: a ``set`` of :func:`flood_key` values,
cleared at every ``_start_round``.  Both agents are driven with the same
random rostering cells (all four phases, rounds within ±3 of the current
one across the 255 → 1 wrap, COMMIT chunks 0–85 from two origins) and
the same clock, and must put the same cells on the same ports.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.micropacket import BROADCAST, MicroPacket, MicroPacketType
from repro.phys.frame import frame_for
from repro.rostering import (
    AgentState,
    Phase,
    encode_explore,
    encode_join,
    encode_report,
    flood_key,
)
from repro.rostering.agent import RosterAgent
from repro.rostering.wire import PAD
from repro.sim import Simulator

NODE = 3
WINDOW_NS = 1_000
#: Few origins, so duplicates are common; ``NODE`` hears its own cells.
ORIGINS = (0, 1, 2, NODE, 4, 254)
COMMIT_ORIGINS = (0, NODE)
MAX_CHUNK = 85


class FakePort:
    """What the agent uses of a port: carrier, a name, and a tx link."""

    def __init__(self, index: int):
        self.name = f"port{index}"
        self.carrier_up = True
        self.sent = []
        self.tx_link = self

    def transmit(self, frame) -> bool:
        self.sent.append(frame.packet.payload)
        return True


class ParentRuleAgent(RosterAgent):
    """``RosterAgent`` relaying by the set of flood keys it replaced."""

    def __init__(self, *args, **kwargs):
        self.relayed = set()
        super().__init__(*args, **kwargs)

    def _start_round(self, round_no, joined=False):
        self.relayed = set()
        super()._start_round(round_no, joined)

    def _flood(self, frame, except_port=None):
        if except_port is None:  # a cell of the node's own
            self.relayed.add(flood_key(frame.packet.payload))
        super()._flood(frame, except_port)

    def _relay(self, frame, arrival, msg):
        key = flood_key(frame.packet.payload)
        if key in self.relayed:
            return
        self.relayed.add(key)
        self._flood(frame, except_port=arrival)
        self.counters.incr("cells_relayed")


def make(cls, start_round: int):
    sim = Simulator()
    ports = [FakePort(0), FakePort(1)]
    agent = cls(sim, NODE, ports, WINDOW_NS)
    agent.round_no = start_round
    agent.trigger("test")
    return sim, agent, ports


def commit_cell(origin: int, round_no: int, index: int, total: int):
    members = [3 * index + k for k in range(3)]
    members = [m if m < PAD else PAD for m in members]
    payload = bytes([Phase.COMMIT, origin, round_no, index, total, *members])
    return MicroPacket(ptype=MicroPacketType.ROSTERING, src=origin,
                       dst=BROADCAST, payload=payload)


def cell(step, round_no: int):
    phase, origin, _delta, bitmap, index, total, _port = step
    if phase == Phase.EXPLORE:
        return encode_explore(origin, round_no)
    if phase == Phase.REPORT:
        return encode_report(origin, round_no, bitmap)
    if phase == Phase.JOIN:
        return encode_join(origin)
    return commit_cell(origin, round_no, index, total)


cell_steps = st.one_of(
    st.tuples(
        st.sampled_from([Phase.EXPLORE, Phase.REPORT, Phase.JOIN]),
        st.sampled_from(ORIGINS), st.integers(-3, 3), st.integers(1, 3),
        st.just(0), st.just(0), st.integers(0, 1)),
    st.tuples(
        st.just(Phase.COMMIT), st.sampled_from(COMMIT_ORIGINS),
        st.integers(-3, 3), st.just(0), st.integers(0, MAX_CHUNK),
        st.sampled_from([1, 2, MAX_CHUNK + 1]), st.integers(0, 1)),
)
tick_steps = st.sampled_from([WINDOW_NS // 2, WINDOW_NS, 3 * WINDOW_NS])


def drive(start_round, steps):
    """Run both agents through ``steps``; return both, checked equal."""
    sides = [make(RosterAgent, start_round), make(ParentRuleAgent, start_round)]
    (_, new, new_ports), (_, ref, ref_ports) = sides
    for step in steps:
        for sim, agent, ports in sides:
            if isinstance(step, int):
                sim.run(until=sim.now + step)
                continue
            round_no = (agent.round_no + step[2]) % 256
            agent.on_cell(frame_for(cell(step, round_no)), ports[step[-1]])
        assert (new.round_no, new.state, new.roster) == (
            ref.round_no, ref.state, ref.roster)
        assert [p.sent for p in new_ports] == [p.sent for p in ref_ports]
    assert new.counters == ref.counters
    return sides


@settings(max_examples=500, deadline=None)
@given(
    st.sampled_from([0, 1, 2, 127, 252, 253, 254, 255]),
    st.lists(st.one_of(cell_steps, tick_steps), max_size=60),
)
def test_relays_what_the_flood_key_set_relays(start_round, steps):
    drive(start_round, steps)


def test_round_255_wraps_to_1():
    """A commit timeout in round 255 opens round 1 (0 means "no round"):
    node 0 reports, so the master's commit is node 0's to send."""
    report = (Phase.REPORT, 0, 0, 3, 0, 0, 0)
    (_, agent, _), _ = drive(254, [report, 3 * WINDOW_NS])
    assert agent.round_no == 1
    assert agent.counters["commit_timeouts"] == 1


def test_newer_explore_relays_once_per_port_it_arrives_on():
    """The copy that opens a newer round is relayed before the round
    starts, so the round forgets it: the second copy, through the other
    switch, relays too (the rule always did this).  A third does not."""
    # A step's round is relative to the agent's: the first copy is one
    # ahead, and the round it opens is then the agent's own.
    newer = (Phase.EXPLORE, 0, 1, 0, 0, 0, 0)
    again = (Phase.EXPLORE, 0, 0, 0, 0, 0, 1)
    (_, agent, ports), _ = drive(5, [newer, again, again[:-1] + (0,)])
    assert agent.round_no == 7  # opened by node 0, one past ours
    payload = encode_explore(0, 7).payload
    assert ports[1].sent.count(payload) == 1
    assert ports[0].sent.count(payload) == 1
    assert agent.counters["cells_relayed"] == 2


def test_newer_report_opens_the_round_and_relays_once():
    newer = (Phase.REPORT, 0, 1, 3, 0, 0, 0)
    again = (Phase.REPORT, 0, 0, 3, 0, 0, 1)
    (_, agent, ports), _ = drive(5, [newer, again, again[:-1] + (0,)])
    assert agent.round_no == 7
    assert agent.state == AgentState.EXPLORING
    assert agent._reports[0] is not None
    payload = encode_report(0, 7, 3).payload
    assert ports[1].sent.count(payload) == 1
    assert ports[0].sent.count(payload) == 0
    assert agent.counters["cells_relayed"] == 1
