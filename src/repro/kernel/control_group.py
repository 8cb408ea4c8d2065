"""Control groups and application failover (slides 12, 18-19).

    "Millisecond application failure detection.  Application definable
     fail-over period.  Control passes to the best qualified computer.
     Applies Application Rules of Recovery.  No down time and no loss
     of data!"

A *control group* is a named set of nodes able to run an application.
Exactly one member — the *primary* — runs it; the application checkpoints
every state change into the network cache, which replicates it to every
member for free.  Failure handling is entirely roster-driven:

1. The primary dies.  AmpDK heartbeats detect the silence within
   ``heartbeat_timeout_ns`` (millisecond failure detection) and rostering
   rebuilds the ring without the dead node.
2. Every surviving member evaluates the same deterministic election over
   the new roster: the live member with the highest qualification score
   (ties to lowest id) is the new primary ("control passes to the best
   qualified computer").
3. The new primary waits the group's *failover period* (application
   definable — time for the app to flush, for operators to veto, or
   simply zero) and then invokes the application's recovery rules with
   the replicated state.  A node whose replica is cold (it re-joined
   after a crash) waits on for the cache refresh that warms it.

Because checkpoints ride the reliable messenger and live in every
replica, the new primary resumes from the last *confirmed* checkpoint:
nothing the application considered durable is ever lost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple, TYPE_CHECKING

from ..netcache import RegionSpec
from ..rostering import Roster
from ..sim import Counter, Event

if TYPE_CHECKING:  # pragma: no cover
    from ..node import AmpNode

__all__ = ["ControlGroup", "ControlGroupConfig", "GroupApp"]


@dataclass
class ControlGroupConfig:
    """One control group's policy."""

    name: str
    members: Sequence[int]
    #: node id -> qualification score (higher = better qualified);
    #: missing members default to 0.
    qualification: Dict[int, int] = field(default_factory=dict)
    #: application-definable failover period (slide 19)
    failover_period_ns: int = 0
    #: cache region the application checkpoints into
    region: Optional[RegionSpec] = None


class GroupApp:
    """Base class for applications run under a control group.

    Subclasses implement :meth:`run` as a simulation process.  ``recover``
    is called (on the *new* primary, before ``run``) with no arguments —
    the replicated cache region is the recovery input; this is the
    "application rules of recovery" hook.
    """

    def __init__(self, node: "AmpNode", group: "ControlGroup"):
        self.node = node
        self.group = group

    def recover(self) -> None:  # pragma: no cover - default no-op
        """Reconstruct volatile state from the network cache."""

    def run(self):
        """The application main loop (generator)."""
        raise NotImplementedError

    def stopped(self) -> bool:
        """True once this instance no longer runs the group's app: the
        node was demoted or crashed, or a later takeover replaced it.
        Apps poll it after every wait and return when it holds."""
        return self.group.app is not self


class ControlGroup:
    """One node's view of a control group."""

    def __init__(
        self,
        node: "AmpNode",
        config: ControlGroupConfig,
        app_factory: Callable[["AmpNode", "ControlGroup"], GroupApp],
    ):
        self.node = node
        self.sim = node.sim
        self.config = config
        self.app_factory = app_factory
        self.counters = Counter()
        self.name = f"cg-{config.name}-{node.node_id}"

        self.primary: Optional[int] = None
        self.app: Optional[GroupApp] = None
        self._app_process = None
        self._epoch = 0
        #: a takeover waiting for the cold replica to warm: (epoch, promoted)
        self._parked: Optional[Tuple[int, bool]] = None
        #: fires whenever this node becomes primary (tests/examples)
        self.became_primary: Event = node.sim.event()

        if config.region is not None:
            node.cache.define_region(config.region, announce=False)
        # No ring-down hook: the app keeps running through rostering (the
        # ring heals in a couple of milliseconds); only checkpoint
        # confirmation stalls.
        node.ring_up_listeners.append(self._on_ring_up)
        node.crash_listeners.append(self._on_crash)
        if node.refresh is not None:
            node.refresh.on_warm.append(self._on_warm)

    # ------------------------------------------------------------- election
    def elect(self, roster: Roster) -> Optional[int]:
        """Best-qualified live member; deterministic on every node."""
        live = [m for m in self.config.members if m in roster.members]
        if not live:
            return None
        qual = self.config.qualification
        return max(live, key=lambda m: (qual.get(m, 0), -m))

    # ------------------------------------------------------------ lifecycle
    def _on_ring_up(self, roster: Roster) -> None:
        new_primary = self.elect(roster)
        old_primary = self.primary
        self.primary = new_primary
        if new_primary == self.node.node_id:
            if old_primary != new_primary or self._app_process is None:
                self._epoch += 1
                self.counters.incr("takeovers")
                promoted = old_primary is not None
                self.sim.call_in(
                    self.config.failover_period_ns if promoted else 0,
                    self._takeover, self._epoch, promoted,
                )
        else:
            self._stop_app()

    def _takeover(self, epoch: int, promoted: bool) -> None:
        """The failover period is over: recovery rules, then the app main
        loop — unless a later ring-up or a crash superseded this one."""
        if epoch != self._epoch or self.primary != self.node.node_id:
            return
        # Assimilation rule: never run recovery against a cold replica —
        # park until the cache refresh warms a rejoining node.
        refresh = self.node.refresh
        if refresh is not None and not refresh.warm:
            self._parked = (epoch, promoted)
            return
        self.app = self.app_factory(self.node, self)
        self.app.recover()
        self.counters.incr("recoveries")
        self.node.tracer.record(
            self.sim.now, "cg_primary", self.name,
            group=self.config.name, promoted=promoted,
        )
        if not self.became_primary.triggered:
            self.became_primary.succeed(self.sim.now)
        self.became_primary = self.sim.event()
        self._app_process = self.sim.process(
            self.app.run(), name=f"{self.name}.app"
        )

    def _on_warm(self) -> None:
        parked, self._parked = self._parked, None
        if parked is not None:
            self._takeover(*parked)

    def _stop_app(self) -> None:
        """Retire the running app instance: it sees :meth:`GroupApp.stopped`
        at its next resumption and returns."""
        if self._app_process is not None and self._app_process.is_alive:
            self.counters.incr("demotions")
        self._app_process = None
        self.app = None

    def _on_crash(self) -> None:
        """The node power-failed (its fresh, empty cache replica is
        already attached: the stack's listeners run before ours)."""
        self._epoch += 1
        self._stop_app()
        self.primary = None
        if self.config.region is not None:
            self.node.cache.define_region(self.config.region, announce=False)
