"""The workload vocabulary: one row per kind a scenario may declare.

:class:`~repro.scenarios.WorkloadSpec` validates against this table at
construction, and the scenario runner builds every generator from it
with one generic constructor call — so adding a kind is one row here
plus the generator class the row names (``docs/scenarios.md``, "Adding
a workload or fault kind").  Param names are the constructors' own
keywords and defaults live only there; what the rows cannot say:

* ``count`` is per node for ``broadcast`` and floods for
  ``cluster_broadcast``.
* ``profile`` is ``{"shape": "sinusoidal", "period_tours", "floor"}`` or
  ``{"shape": "ramp", "start_tours", "end_tours", "floor"}``, its
  windows anchored at ring-up.
* ``start_tours`` delays the first send (mesh scenarios hold multi-hop
  traffic until the routers' distance-vector exchange has converged).
* ``pareto_sizes`` (``{"alpha", "min_bytes", "cap_bytes"}``) draws
  bounded-Pareto payload sizes from ``workload.<name>.sizes``; sized
  payloads fragment through the messenger, so it needs
  ``reliable=True``.
* ``dst_pool`` replaces ``dst`` with a list of destinations, one drawn
  per message from ``workload.<name>.dst``; it needs ``reliable=True``
  and an explicit ``name``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from .generators import (
    AllToAllBroadcast,
    ClusterBroadcastStream,
    FileStream,
    MessageStream,
)
from .popularity import ZipfStream
from .stochastic import BurstStream, InhomogeneousPoissonStream, PoissonStream

__all__ = ["PARAM_KEYWORDS", "WORKLOAD_KINDS", "WorkloadKind"]


@dataclass(frozen=True)
class WorkloadKind:
    """One row of :data:`WORKLOAD_KINDS`."""

    #: the generator class; built as ``cls(cluster, **fields, **params)``
    cls: type
    #: ``WorkloadSpec`` fields passed to the constructor under their own
    #: names.  ``src``/``dst`` listed here are required of the spec
    #: (``dst`` may give way to a ``dst_pool`` param); unlisted, they
    #: must stay unset.
    fields: Tuple[str, ...]
    #: params the spec must carry
    required: Tuple[str, ...] = ()
    #: params the spec may carry
    optional: Tuple[str, ...] = ()
    #: the one ``reliable`` value the kind allows; None = either
    reliable: Optional[bool] = None

    def validate(self, kind: str, src, dst, reliable: bool,
                 params: Mapping[str, Any]) -> None:
        """Raise ``ValueError`` (naming ``kind`` and the offending
        field or param) unless a spec with these values can be built."""
        given = {"src": src, "dst": dst}
        unwanted = [f for f, v in given.items()
                    if f not in self.fields and v is not None]
        if unwanted:
            raise ValueError(f"{kind} workloads take no {'/'.join(unwanted)}")
        missing = [f for f, v in given.items()
                   if f in self.fields and v is None
                   and not (f == "dst" and "dst_pool" in params)]
        if missing:
            raise ValueError(
                f"{kind} workload needs {' and '.join(missing)}"
                + (" (or a dst_pool param)" if "dst" in missing else "")
            )
        if self.reliable is True and not reliable:
            raise ValueError(
                f"{kind} workloads are always messenger-carried; "
                "declare reliable=True"
            )
        if self.reliable is False and reliable:
            raise ValueError(
                f"{kind} workloads cannot be reliable (raw cells and "
                "broadcasts have no ack path)"
            )
        for need in self.required:
            if need not in params:
                raise ValueError(f"{kind} workload needs a {need} param")
        accepted = {*self.required, *self.optional}
        for key in params:
            if key not in accepted:
                raise ValueError(
                    f"{kind} workloads take no {key!r} param "
                    f"(accepted: {sorted(accepted) or 'none'})"
                )


#: Params the runner resolves against the live cluster before the
#: constructor sees them — tours to ns, a size law to a seeded draw
#: function: spec key -> constructor keyword.  Every other param goes
#: through under its name.
PARAM_KEYWORDS: Dict[str, str] = {
    "start_tours": "start_ns",
    "pareto_sizes": "size_fn",
}

_UNICAST = ("src", "dst", "count", "channel", "name")
_STREAM = _UNICAST + ("reliable",)
_STREAM_OPTIONS = ("start_tours", "pareto_sizes", "dst_pool")

WORKLOAD_KINDS: Dict[str, WorkloadKind] = {
    "message": WorkloadKind(
        MessageStream, _STREAM,
        optional=("interval_ns",) + _STREAM_OPTIONS,
    ),
    "file": WorkloadKind(
        FileStream, _UNICAST,
        optional=("chunk_bytes",),
    ),
    "broadcast": WorkloadKind(
        AllToAllBroadcast, ("count", "channel"), reliable=False,
    ),
    "cluster_broadcast": WorkloadKind(
        ClusterBroadcastStream, ("src", "count", "channel", "name"),
        optional=("interval_ns", "start_tours"), reliable=False,
    ),
    "poisson": WorkloadKind(
        PoissonStream, _STREAM,
        required=("mean_interval_ns",), optional=_STREAM_OPTIONS,
    ),
    "inhomogeneous_poisson": WorkloadKind(
        InhomogeneousPoissonStream, _STREAM,
        required=("peak_interval_ns", "profile"), optional=_STREAM_OPTIONS,
    ),
    "burst": WorkloadKind(
        BurstStream, _STREAM,
        required=("burst_mean", "intra_gap_ns", "off_mean_ns"),
        optional=_STREAM_OPTIONS,
    ),
    "zipf": WorkloadKind(
        ZipfStream, _UNICAST,
        required=("interval_ns",),
        optional=("alpha", "catalog_size"), reliable=True,
    ),
}
