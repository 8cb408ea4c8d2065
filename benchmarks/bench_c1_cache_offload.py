"""C1: on-path caching offloads the origin segment of a routed star.

Zipf clients on three leaf segments request content from an origin node
on segment 0 through a four-port gateway router whose on-path cache is
enabled.  The sweep crosses the two knobs that govern cacheability —
the Zipf skew ``alpha`` and the router's cache capacity — and records
the hit ratio and the fraction of crossings that never reached the
origin segment.  The paper-shaped claim: hit ratio (and with it origin
offload) rises monotonically along *both* axes, and even the smallest
cache offloads a meaningful share of a skewed workload.

The grid is the ``cache_offload_star`` library shape scaled down (16
nodes per segment instead of 128) so nine cells stay cheap; each cell
is a full scenario run judged by the engine's invariants.  Knobs can be
narrowed for smoke runs: ``C1_CAPACITIES=4 pytest -q benchmarks/bench_c1...``.
"""

from repro.routing import RouterConfig
from repro.scenarios import (
    CacheSpec,
    ScenarioSpec,
    SegmentSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.sweep import SweepGrid, run_grid, workers_from_env

import harness

DEFAULT_ALPHAS = (0.4, 1.0, 1.6)
DEFAULT_CAPACITIES = (4, 8, 16)
CATALOG_SIZE = 24
REQUESTS_PER_CLIENT = 40
#: each cell pools three seeds — a single 120-request run is noisy
#: enough for LRU dynamics to wobble the capacity axis by a few hits
SEEDS = (7, 11, 23)


def alphas_under_test():
    # Integer knob (tenths of alpha) so the shared size parser applies.
    raw = harness.sizes_from_env(
        "C1_ALPHAS_X10", tuple(int(round(a * 10)) for a in DEFAULT_ALPHAS)
    )
    return tuple(a / 10 for a in raw)


def capacities_under_test():
    return harness.sizes_from_env("C1_CAPACITIES", DEFAULT_CAPACITIES)


def offload_spec(alpha: float, capacity: int) -> ScenarioSpec:
    zipf = {"interval_ns": 30_000, "alpha": alpha,
            "catalog_size": CATALOG_SIZE}
    return ScenarioSpec(
        name=f"c1_offload_a{int(round(alpha * 10)):02d}_c{capacity}",
        description="scaled cache_offload_star cell for the C1 sweep",
        topology=TopologySpec(
            segments=tuple(SegmentSpec(n_nodes=16) for _ in range(4)),
            routers=(RouterConfig(segments=(0, 1, 2, 3),
                                  cache={"enabled": True,
                                         "capacity": capacity}),),
        ),
        seed=7,
        cache=CacheSpec(origin=(0, 1)),
        workloads=tuple(
            WorkloadSpec("zipf", count=REQUESTS_PER_CLIENT,
                         src=(seg, 5), dst=(0, 1), channel=13,
                         reliable=True, params=dict(zipf))
            for seg in (1, 2, 3)
        ),
        horizon_tours=25,
        grace_tours=4_000,
        invariants=("no_drops", "all_delivered", "roster_converged"),
    )


def offload_grid() -> SweepGrid:
    return SweepGrid(
        specs=tuple(
            offload_spec(alpha, capacity)
            for alpha in alphas_under_test()
            for capacity in capacities_under_test()
        ),
        seeds=SEEDS,
    )


def cell_metrics(result):
    c = result["counters"]
    offered = c["offered"]
    hits = c.get("router_cache_hits", 0)
    misses = c.get("router_cache_misses", 0)
    origin = c.get("cache_origin_requests", 0)
    # The tap's ledger: every crossing request was either answered at
    # the router or ferried through to the origin service.
    assert hits + misses == offered
    assert hits + origin == offered
    return offered, hits, origin


def run_experiment():
    grid = offload_grid()
    records = run_grid(grid, workers=workers_from_env())
    rows = []
    # Cells are spec-major, seed-minor: pool each spec's seed block.
    per_spec = len(SEEDS)
    for i, spec in enumerate(grid.specs):
        block = records[i * per_spec:(i + 1) * per_spec]
        offered = hits = origin = 0
        for record in block:
            assert "error" not in record, record.get("error")
            result = record["result"]
            assert result["ok"], f"{spec.name} failed invariants"
            o, h, g = cell_metrics(result)
            offered, hits, origin = offered + o, hits + h, origin + g
        alpha = spec.workloads[0].params["alpha"]
        capacity = spec.topology.routers[0].cache.capacity
        rows.append((alpha, capacity, offered, hits, origin,
                     round(hits / offered, 4)))
    return rows, list(grid.specs)


def test_c1_cache_offload(publish_json):
    rows, specs = run_experiment()
    alphas, capacities = alphas_under_test(), capacities_under_test()
    ratio = {(a, cap): r[5] for r, (a, cap) in zip(
        rows, [(a, c) for a in alphas for c in capacities])}

    for alpha, capacity, offered, hits, origin, _ in rows:
        # Even the smallest cache under the flattest skew offloads.
        assert hits > 0, f"no offload at alpha={alpha} cap={capacity}"
        assert origin < offered

    # Hit ratio rises with skew at every capacity...
    for cap in capacities:
        series = [ratio[(a, cap)] for a in alphas]
        assert series == sorted(series), f"alpha axis not monotone: {series}"
        assert series[0] < series[-1]
    # ...and with capacity at every skew.
    for alpha in alphas:
        series = [ratio[(alpha, cap)] for cap in capacities]
        assert series == sorted(series), (
            f"capacity axis not monotone: {series}")
        assert series[0] < series[-1]

    columns = ["Zipf alpha", "Cache capacity", "Requests",
               "Router cache hits", "Origin requests", "Hit ratio"]
    publish_json(
        harness.bench_payload(
            exp="C1",
            title="On-path cache offload vs Zipf skew and cache capacity",
            params={"alphas": list(alphas),
                    "capacities": list(capacities),
                    "catalog_size": CATALOG_SIZE,
                    "requests_per_client": REQUESTS_PER_CLIENT,
                    "seeds": list(SEEDS)},
            columns=columns,
            rows=[list(r) for r in rows],
            metrics={
                "min_hit_ratio": min(r[5] for r in rows),
                "max_hit_ratio": max(r[5] for r in rows),
                "total_origin_requests": sum(r[4] for r in rows),
            },
            scenarios=[spec.to_dict() for spec in specs],
            notes="Each cell is a scaled cache_offload_star scenario "
                  "(4x16-node star, shared 24-entry catalog) judged by "
                  "no_drops + all_delivered + roster_converged.",
        )
    )
