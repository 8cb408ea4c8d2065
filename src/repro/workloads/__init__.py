"""Synthetic workloads: message streams, file streams, broadcast storms,
and seeded stochastic arrival processes.

Every generator drives traffic through the public MAC/transport APIs of
a cluster (single-segment :class:`~repro.cluster.AmpNetCluster` or
router-joined :class:`~repro.routing.RoutedCluster` — destinations are
plain node ids on the former, ``(segment, node)`` tuples on the latter)
and accounts offered/delivered/latency in a :class:`StreamStats`.
Constant-rate :class:`MessageStream` and :class:`FileStream` cover the
paper's slide-7 mix; :class:`AllToAllBroadcast` is the slide-8 storm;
:mod:`repro.workloads.stochastic` adds seeded Poisson,
inhomogeneous-Poisson (thinning) and burst arrival processes plus
bounded-Pareto heavy-tailed payload sizes;
:mod:`repro.workloads.popularity` adds Zipf-skewed content request
streams over the :mod:`repro.caching` protocol.  All randomness draws
from named ``sim.rng`` streams, so workloads never perturb each other and
every run replays bit-identically under its seed.  Generators own the
receive handlers they install and release them in ``close()``, letting
sequential workloads share one cluster without double-counting.

:data:`WORKLOAD_KINDS` (:mod:`repro.workloads.kinds`) is the one table
of kinds a scenario can declare: class, required and optional params,
and which ``WorkloadSpec`` fields each kind takes.
"""

from .generators import (
    AllToAllBroadcast,
    ClusterBroadcastStream,
    FileStream,
    MessageStream,
    StreamStats,
    Workload,
    run_slide7_mixed_workload,
)
from .popularity import ZipfStream, zipf_sampler, zipf_weights
from .stochastic import (
    BurstStream,
    InhomogeneousPoissonStream,
    PoissonStream,
    pareto_size_fn,
    pareto_sizes,
    ramp_profile,
    sinusoidal_profile,
)
from .kinds import PARAM_KEYWORDS, WORKLOAD_KINDS, WorkloadKind

__all__ = [
    "AllToAllBroadcast",
    "BurstStream",
    "ClusterBroadcastStream",
    "FileStream",
    "InhomogeneousPoissonStream",
    "MessageStream",
    "PARAM_KEYWORDS",
    "PoissonStream",
    "StreamStats",
    "WORKLOAD_KINDS",
    "Workload",
    "WorkloadKind",
    "ZipfStream",
    "pareto_size_fn",
    "pareto_sizes",
    "ramp_profile",
    "run_slide7_mixed_workload",
    "sinusoidal_profile",
    "zipf_sampler",
    "zipf_weights",
]
