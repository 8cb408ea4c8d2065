"""F6 (slides 14-15): dual- vs quad-redundant segment survivability.

Monte-Carlo over random link/switch failures: how large a logical ring
can rostering still construct?  Quad redundancy keeps the full ring
through far deeper damage than dual — the reason slide 14's network is
drawn with four switches.
"""

import random

from repro.rostering import compute_roster
from repro.sweep import pool_map

import harness

N_NODES = 6
TRIALS = 300
FAILURE_GRID = (0, 1, 2, 3, 4, 6, 8, 10)


def surviving_attachment(n_switches: int, n_failures: int, rng: random.Random):
    """Random damage: each failure kills a random link or (1 in 6) a switch."""
    attachment = {sw: set(range(N_NODES)) for sw in range(n_switches)}
    for _ in range(n_failures):
        if rng.random() < 1 / 6:
            sw = rng.randrange(n_switches)
            attachment[sw] = set()
        else:
            sw = rng.randrange(n_switches)
            node = rng.randrange(N_NODES)
            attachment[sw].discard(node)
    return attachment


def mean_ring_size(n_switches: int, n_failures: int, seed: int) -> float:
    rng = random.Random(seed)
    total = 0
    for _ in range(TRIALS):
        attachment = surviving_attachment(n_switches, n_failures, rng)
        members = compute_roster(attachment)
        total += len(members) if members else 0
    return total / TRIALS


def measure_failures(failures: int):
    """One grid point: mean ring size at this damage depth, dual + quad."""
    dual = mean_ring_size(2, failures, seed=failures)
    quad = mean_ring_size(4, failures, seed=failures)
    return failures, round(dual, 2), round(quad, 2)


def run_experiment():
    # Each damage depth is an independent seeded Monte-Carlo, so the
    # grid fans out through the sweep pool (serial unless
    # REPRO_SWEEP_WORKERS asks otherwise; order is grid order always).
    return pool_map(measure_failures, [(f,) for f in FAILURE_GRID])


def test_f6_redundancy_survivability(publish_json):
    rows = run_experiment()

    # Shape: quad >= dual everywhere; gap widens with damage depth;
    # both start at the full ring.
    dual0, quad0 = float(rows[0][1]), float(rows[0][2])
    assert dual0 == quad0 == N_NODES
    for failures, dual, quad in rows:
        assert float(quad) >= float(dual) - 1e-9, failures
    deep = rows[-3:]
    assert any(float(q) - float(d) > 0.5 for _f, d, q in deep), (
        "quad redundancy should clearly win under deep damage"
    )

    publish_json(
        harness.bench_payload(
            exp="F6",
            title="Redundancy survivability: mean ring size vs random failures",
            params={"n_nodes": N_NODES, "trials": TRIALS,
                    "failure_grid": list(FAILURE_GRID)},
            columns=["failures", "dual_mean_ring", "quad_mean_ring"],
            rows=[list(row) for row in rows],
            metrics={
                "deep_damage_gap": round(
                    max(q - d for _f, d, q in rows[-3:]), 2
                ),
            },
            notes="Seeded Monte-Carlo (seed = failure count), so rows are "
                  "deterministic; quad redundancy holds the ring together "
                  "through damage that collapses dual.",
        )
    )
