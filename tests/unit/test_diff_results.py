"""Unit tests for the benchmark trajectory differ.

Two regressions motivated these.  An emission present in OLD but
missing entirely from NEW used to surface as a quiet note, so a deleted
(or silently-skipped) bench sailed through ``--check``.  And the differ
used to allow 5 % of relative change, so eleven committed cells the
tree no longer produced (a cache-hit count off by one, a simulated
latency off by 0.6 %) read as "no drift" for nine PRs.
"""

import importlib.util
import json
import pathlib

_DIFF_PATH = (
    pathlib.Path(__file__).resolve().parents[2] / "benchmarks"
    / "diff_results.py"
)
_spec = importlib.util.spec_from_file_location("diff_results", _DIFF_PATH)
diff_results = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(diff_results)


def emission(exp, metric=1.0, params=None):
    return {
        "schema": "repro-bench/1",
        "exp": exp,
        "title": exp,
        "params": params or {"n": 4},
        "columns": ["k", "v"],
        "rows": [["a", metric]],
        "metrics": {"latency_ns": metric},
    }


def write_tree(path, emissions):
    path.mkdir()
    for payload in emissions:
        (path / f"{payload['exp']}.json").write_text(json.dumps(payload))
    return path


def test_identical_trees_are_clean(tmp_path):
    old = write_tree(tmp_path / "old", [emission("F1"), emission("P9")])
    new = write_tree(tmp_path / "new", [emission("F1"), emission("P9")])
    drifts, _notes, missing = diff_results.diff_trees(old, new)
    assert drifts == [] and missing == []
    assert diff_results.main([str(old), str(new), "--check"]) == 0


def test_metric_drift_flagged(tmp_path):
    old = write_tree(tmp_path / "old", [emission("F1", metric=100.0)])
    new = write_tree(tmp_path / "new", [emission("F1", metric=150.0)])
    drifts, _notes, missing = diff_results.diff_trees(old, new)
    assert len(drifts) == 2  # the metric and the joined row cell
    assert missing == []
    assert diff_results.main([str(old), str(new), "--check"]) == 1


def test_missing_emission_is_a_check_failure(tmp_path):
    old = write_tree(tmp_path / "old", [emission("F1"), emission("P9")])
    new = write_tree(tmp_path / "new", [emission("F1")])
    drifts, _notes, missing = diff_results.diff_trees(old, new)
    assert drifts == []
    assert missing == ["P9"]
    assert diff_results.main([str(old), str(new), "--check"]) == 1
    # Without --check it still reports, but does not fail the build.
    assert diff_results.main([str(old), str(new)]) == 0


def test_allow_missing_tolerates_intentional_removal(tmp_path):
    old = write_tree(tmp_path / "old", [emission("F1"), emission("P9")])
    new = write_tree(tmp_path / "new", [emission("F1")])
    assert diff_results.main(
        [str(old), str(new), "--check", "--allow-missing"]
    ) == 0


def test_new_experiment_is_just_a_note(tmp_path):
    old = write_tree(tmp_path / "old", [emission("F1")])
    new = write_tree(tmp_path / "new", [emission("F1"), emission("P9")])
    drifts, notes, missing = diff_results.diff_trees(old, new)
    assert drifts == [] and missing == []
    assert any("new experiment" in n for n in notes)
    assert diff_results.main([str(old), str(new), "--check"]) == 0


def test_changed_params_still_skip_comparison(tmp_path):
    old = write_tree(tmp_path / "old", [emission("F1", metric=100.0)])
    new = write_tree(
        tmp_path / "new",
        [emission("F1", metric=999.0, params={"n": 16})],
    )
    drifts, notes, missing = diff_results.diff_trees(old, new)
    assert drifts == [] and missing == []
    assert any("params changed" in n for n in notes)


def aggregate_emission(exp, latency=100.0):
    """Sweep-style emission: the first column repeats across rows."""
    return {
        "schema": "repro-bench/1",
        "exp": exp,
        "title": exp,
        "params": {"seeds": [1, 2]},
        "columns": ["scenario", "metric", "mean"],
        "rows": [
            ["quiet_ring", "delivered", 120],
            ["quiet_ring", "latency_mean_ns", latency],
            ["storm", "delivered", 240],
        ],
        "metrics": {"runs": 4},
    }


def test_repeated_first_column_joins_on_widened_key(tmp_path):
    """Regression: width-1 keys collapsed aggregate rows last-wins.

    With one row per (scenario, metric), joining on the first column
    alone used to compare 'quiet_ring latency' against 'quiet_ring
    delivered' — drift in any shadowed row was invisible.
    """
    old = write_tree(tmp_path / "old", [aggregate_emission("S1")])
    new = write_tree(tmp_path / "new",
                     [aggregate_emission("S1", latency=200.0)])
    drifts, _notes, missing = diff_results.diff_trees(old, new)
    assert missing == []
    assert len(drifts) == 1
    assert drifts[0].where == "row[('quiet_ring', 'latency_mean_ns')].mean"
    assert diff_results.main([str(old), str(new), "--check"]) == 1


def test_plain_tables_still_join_on_first_column(tmp_path):
    old = write_tree(tmp_path / "old", [emission("F1", metric=100.0)])
    new = write_tree(tmp_path / "new", [emission("F1", metric=100.0)])
    # Unique first column -> historical width-1 behaviour, no drift.
    drifts, _notes, _missing = diff_results.diff_trees(old, new)
    assert drifts == []
    assert diff_results._row_key_width(["k", "v"], [["a", 1], ["b", 2]]) == 1
    assert diff_results._row_key_width(
        ["s", "m", "v"], [["a", "x", 1], ["a", "y", 2]]
    ) == 2


def test_a_one_count_drift_fails_the_check(tmp_path):
    """C1's (1.0, 16) cell: 263 committed cache hits, 264 produced."""
    old = write_tree(tmp_path / "old", [emission("C1", metric=263)])
    new = write_tree(tmp_path / "new", [emission("C1", metric=264)])
    drifts, _notes, _missing = diff_results.diff_trees(old, new)
    assert [d.where for d in drifts] == ["metrics.latency_ns", "row['a'].v"]
    assert (drifts[0].old, drifts[0].new) == (263, 264)
    assert diff_results.main([str(old), str(new), "--check"]) == 1


def test_float_repr_noise_is_not_a_drift(tmp_path):
    old = write_tree(tmp_path / "old", [emission("P2", metric=11597.5)])
    new = write_tree(tmp_path / "new",
                     [emission("P2", metric=11597.5 * (1 + 1e-12))])
    assert diff_results.main([str(old), str(new), "--check"]) == 0
    # ...and that is all the room there is: integers get none.
    assert not diff_results.same(10**12, 10**12 + 1)
    assert not diff_results.same(11597.5, 11597.6)
    assert not diff_results.same(3.12, "3.12")


def _check_fails_on(tmp_path, change):
    changed = emission("F1")
    change(changed)
    old = write_tree(tmp_path / "old", [emission("F1")])
    new = write_tree(tmp_path / "new", [changed])
    drifts, _notes, _missing = diff_results.diff_trees(old, new)
    assert diff_results.main([str(old), str(new), "--check"]) == 1
    return [d.where for d in drifts]


def test_an_added_column_fails_the_check(tmp_path):
    def add_column(payload):
        payload["columns"].append("extra")
        payload["rows"][0].append(7)

    assert _check_fails_on(tmp_path, add_column) == [
        "columns (rows not compared)"
    ]


def test_a_removed_row_fails_the_check(tmp_path):
    assert _check_fails_on(
        tmp_path, lambda payload: payload["rows"].clear()
    ) == ["row['a']"]


def test_a_removed_metric_fails_the_check(tmp_path):
    assert _check_fails_on(
        tmp_path, lambda payload: payload["metrics"].clear()
    ) == ["metrics.latency_ns"]
