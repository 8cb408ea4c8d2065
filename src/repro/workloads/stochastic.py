"""Seeded stochastic arrival processes for workload generation.

The constant-interval :class:`~repro.workloads.generators.MessageStream`
covers the paper's steady insertion story, but real traffic is bursty
and time-varying.  This module adds three arrival processes, all
deterministic under the simulator's master seed because every draw comes
from a *named* stream of ``sim.rng`` (see :mod:`repro.sim.rand` — the
stream name is derived from the workload's name, so adding another
workload never perturbs this one's arrivals; give streams distinct
names, or distinct (src, dst, channel) triples when relying on the
default name, since equal names share one rng sequence):

* :class:`PoissonStream` — i.i.d. exponential inter-arrival gaps around
  a configured mean (a homogeneous Poisson process);
* :class:`InhomogeneousPoissonStream` — a time-varying rate profile
  simulated by thinning (Lewis & Shedler; see Hohmann, arXiv:1901.10754
  for the recipe): candidate arrivals are drawn at the peak rate and
  accepted with probability ``profile(t)``;
* :class:`BurstStream` — an on/off (interrupted-Poisson-like) process:
  back-to-back packet trains with geometric train lengths separated by
  exponential silences.

All three pass :class:`MessageStream`'s own options through unchanged:
``reliable=True`` (messenger-backed delivery with retransmission across
ring churn), ``size_fn``, ``dst_pool`` and ``start_ns``.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, TYPE_CHECKING

from .generators import MessageStream

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster import AmpNetCluster

__all__ = [
    "PoissonStream",
    "InhomogeneousPoissonStream",
    "BurstStream",
    "pareto_size_fn",
    "pareto_sizes",
    "sinusoidal_profile",
    "ramp_profile",
]

#: Candidate rejections tolerated per accepted arrival before the
#: thinning loop gives up and emits anyway — guards a profile that
#: (buggily) returns ~0 forever from hanging the simulation.
_MAX_THINNING_REJECTIONS = 10_000


def sinusoidal_profile(
    period_ns: int, floor: float = 0.1
) -> Callable[[int], float]:
    """A smooth diurnal-style intensity in [floor, 1] with one cycle per
    ``period_ns``, peaking at the start of each cycle."""
    if not 0.0 <= floor <= 1.0:
        raise ValueError("floor must be in [0, 1]")
    span = 1.0 - floor

    def profile(t_ns: int) -> float:
        x = t_ns / period_ns * 2.0 * math.pi
        return floor + span * 0.5 * (1.0 + math.cos(x))

    return profile


def ramp_profile(start_ns: int, end_ns: int, floor: float = 0.05
                 ) -> Callable[[int], float]:
    """Linear ramp from ``floor`` at ``start_ns`` to 1.0 at ``end_ns``
    (clamped outside the window) — a load test that keeps turning the
    dial up."""
    if end_ns <= start_ns:
        raise ValueError("ramp needs end_ns > start_ns")

    def profile(t_ns: int) -> float:
        frac = (t_ns - start_ns) / (end_ns - start_ns)
        return floor + (1.0 - floor) * min(1.0, max(0.0, frac))

    return profile


def pareto_size_fn(
    cluster: "AmpNetCluster", name: str, **pareto_cfg
) -> Callable[[int], int]:
    """The one place the size-stream seeding contract lives: sizes for
    workload ``name`` always draw from ``workload.<name>.sizes`` — never
    from the stream's arrival draws — so a sized stream replays
    identically however it was built.  Pass the result as ``size_fn=``
    (sized payloads span several cells, so the stream must be
    ``reliable=True``)."""
    return pareto_sizes(
        cluster.sim.rng.stream(f"workload.{name}.sizes"), **pareto_cfg
    )


def pareto_sizes(
    rng, alpha: float = 1.5, min_bytes: int = 16, cap_bytes: int = 4096
) -> Callable[[int], int]:
    """Bounded-Pareto payload sizes: heavy-tailed file/message mixes.

    Draws ``min_bytes * Pareto(alpha)`` capped at ``cap_bytes`` — the
    classic heavy-tailed size model (most messages tiny, rare large ones
    carrying most of the bytes).  ``rng`` must be a named seeded stream
    (``sim.rng.stream("workload.<name>.sizes")``) so size sequences
    replay exactly under the master seed.
    """
    if alpha <= 0:
        raise ValueError("pareto alpha must be positive")
    if not 1 <= min_bytes <= cap_bytes:
        raise ValueError("need 1 <= min_bytes <= cap_bytes")

    def draw(seq: int) -> int:
        size = int(min_bytes * rng.paretovariate(alpha))
        return cap_bytes if size > cap_bytes else size

    return draw


class PoissonStream(MessageStream):
    """Homogeneous Poisson arrivals with mean gap ``mean_interval_ns``."""

    def __init__(
        self,
        cluster: "AmpNetCluster",
        src: int,
        dst: int,
        mean_interval_ns: int,
        count: int,
        channel: int = 0,
        name: Optional[str] = None,
        **stream_options,
    ):
        if mean_interval_ns <= 0:
            raise ValueError("mean_interval_ns must be positive")
        self.mean_interval_ns = mean_interval_ns
        name = name or f"poisson-{src}->{dst}.ch{channel}"
        self._rng = cluster.sim.rng.stream(f"workload.{name}")
        super().__init__(
            cluster, src, dst, interval_ns=mean_interval_ns, count=count,
            channel=channel, name=name, **stream_options,
        )

    def _gap_ns(self, seq: int) -> int:
        return max(1, round(self._rng.expovariate(1.0 / self.mean_interval_ns)))


class InhomogeneousPoissonStream(MessageStream):
    """Inhomogeneous Poisson arrivals via thinning.

    ``profile`` maps simulated time (ns) to a relative intensity in
    [0, 1]; the instantaneous rate is ``profile(t) / peak_interval_ns``.
    Candidates are drawn at the peak rate and accepted with probability
    ``profile(t)``, so the arrival process follows the profile exactly
    without any discretisation of the rate function.
    """

    def __init__(
        self,
        cluster: "AmpNetCluster",
        src: int,
        dst: int,
        peak_interval_ns: int,
        profile: Callable[[int], float],
        count: int,
        channel: int = 0,
        name: Optional[str] = None,
        **stream_options,
    ):
        if peak_interval_ns <= 0:
            raise ValueError("peak_interval_ns must be positive")
        self.peak_interval_ns = peak_interval_ns
        self.profile = profile
        name = name or f"ipoisson-{src}->{dst}.ch{channel}"
        self._rng = cluster.sim.rng.stream(f"workload.{name}")
        super().__init__(
            cluster, src, dst, interval_ns=peak_interval_ns, count=count,
            channel=channel, name=name, **stream_options,
        )

    def _gap_ns(self, seq: int) -> int:
        rng = self._rng
        now = self.cluster.sim.now
        gap = 0
        for _ in range(_MAX_THINNING_REJECTIONS):
            gap += max(1, round(rng.expovariate(1.0 / self.peak_interval_ns)))
            accept = self.profile(now + gap)
            if not 0.0 <= accept <= 1.0:
                raise ValueError(
                    f"profile({now + gap}) = {accept!r} outside [0, 1]"
                )
            if rng.random() < accept:
                break
        return gap


class BurstStream(MessageStream):
    """On/off bursts: trains of back-to-back packets, then silence.

    Train lengths are geometric with mean ``burst_mean`` packets; packets
    within a train are ``intra_gap_ns`` apart; silences are exponential
    with mean ``off_mean_ns``.  The long-run mean rate is therefore
    ``burst_mean / (burst_mean * intra_gap_ns + off_mean_ns)``.
    """

    def __init__(
        self,
        cluster: "AmpNetCluster",
        src: int,
        dst: int,
        burst_mean: float,
        intra_gap_ns: int,
        off_mean_ns: int,
        count: int,
        channel: int = 0,
        name: Optional[str] = None,
        **stream_options,
    ):
        if burst_mean < 1:
            raise ValueError("burst_mean must be >= 1")
        if intra_gap_ns < 0 or off_mean_ns <= 0:
            raise ValueError("burst gaps must be positive")
        self.burst_mean = burst_mean
        self.intra_gap_ns = intra_gap_ns
        self.off_mean_ns = off_mean_ns
        name = name or f"burst-{src}->{dst}.ch{channel}"
        self._rng = cluster.sim.rng.stream(f"workload.{name}")
        self._left_in_burst = 0
        super().__init__(
            cluster, src, dst, interval_ns=intra_gap_ns, count=count,
            channel=channel, name=name, **stream_options,
        )
        self._left_in_burst = self._draw_burst()

    def _draw_burst(self) -> int:
        """Geometric train length with mean ``burst_mean`` (support >= 1)."""
        if self.burst_mean == 1:
            return 1
        p = 1.0 / self.burst_mean
        u = self._rng.random()
        return 1 + int(math.log1p(-u) / math.log1p(-p))

    def _gap_ns(self, seq: int) -> int:
        self._left_in_burst -= 1
        if self._left_in_burst > 0:
            return self.intra_gap_ns
        self._left_in_burst = self._draw_burst()
        return max(1, round(self._rng.expovariate(1.0 / self.off_mean_ns)))
