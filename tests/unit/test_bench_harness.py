"""Unit tests for the machine-readable benchmark emission schema."""

import importlib.util
import json
import pathlib

import pytest

_HARNESS_PATH = (
    pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "harness.py"
)
_spec = importlib.util.spec_from_file_location("bench_harness", _HARNESS_PATH)
harness = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(harness)


def good_payload():
    return harness.bench_payload(
        exp="F99",
        title="test emission",
        params={"n": 4},
        columns=["a", "b"],
        rows=[[1, "x"], [2.5, None]],
        metrics={"total": 3.5},
        scenarios=[{"name": "s"}],
        notes="n",
    )


def test_round_trips_through_json():
    payload = good_payload()
    harness.validate_payload(json.loads(json.dumps(payload)))


def test_schema_version_enforced():
    payload = good_payload()
    payload["schema"] = "repro-bench/0"
    with pytest.raises(harness.BenchSchemaError, match="schema"):
        harness.validate_payload(payload)


def test_missing_required_key_rejected():
    payload = good_payload()
    del payload["columns"]
    with pytest.raises(harness.BenchSchemaError, match="missing required"):
        harness.validate_payload(payload)


def test_unknown_key_rejected():
    payload = good_payload()
    payload["timestamp"] = "2026-07-27"  # timestamps break reproducibility
    with pytest.raises(harness.BenchSchemaError, match="unknown keys"):
        harness.validate_payload(payload)


def test_ragged_rows_rejected():
    payload = good_payload()
    payload["rows"].append([1])
    with pytest.raises(harness.BenchSchemaError, match="cells for"):
        harness.validate_payload(payload)


def test_non_scalar_cell_rejected():
    payload = good_payload()
    payload["rows"][0][0] = {"nested": True}
    with pytest.raises(harness.BenchSchemaError, match="JSON scalar"):
        harness.validate_payload(payload)


def test_bad_exp_identifier_rejected():
    with pytest.raises(harness.BenchSchemaError, match="identifier"):
        harness.bench_payload(
            exp="9F!", title="t", params={}, columns=["a"], rows=[],
        )


def test_write_result_emits_named_file(tmp_path):
    path = harness.write_result(good_payload(), results_dir=tmp_path)
    assert path.name == "F99.json"
    harness.validate_file(path)


def test_validate_file_flags_corrupt_json(tmp_path):
    bad = tmp_path / "F1.json"
    bad.write_text('{"schema": "repro-bench/1"}')
    with pytest.raises(harness.BenchSchemaError):
        harness.validate_file(bad)


def test_committed_results_conform():
    """Every JSON emission checked into benchmarks/results/ must stay
    schema-valid (they are the repo's perf trajectory), and every table
    beside one must be that document rendered, not a second copy."""
    results_dir = _HARNESS_PATH.parent / "results"
    results = sorted(results_dir.glob("*.json"))
    assert results, "no committed bench JSON found"
    for path in results:
        harness.validate_file(path)
    for table in sorted(results_dir.glob("*.txt")):
        payload = json.loads(table.with_suffix(".json").read_text())
        assert table.read_text() == harness.render_text(payload), table.name


def test_cli_validate_without_targets_is_a_usage_error(capsys):
    assert harness._main(["validate"]) == 2
    assert harness._main(["validate", "--all", "extra.json"]) == 2
    assert harness._main([]) == 2


# ------------------------------------------------------- atomic emission

def test_write_result_replaces_atomically(tmp_path, monkeypatch):
    """A failed write must never leave a torn target or temp droppings.

    Regression for the old implementation, which opened the final path
    directly: a crash mid-``json.dump`` left a truncated emission that
    every later ``validate``/``diff`` run choked on.
    """
    good = good_payload()
    harness.write_result(good, results_dir=tmp_path)

    def exploding_replace(src, dst):
        raise OSError("disk went away")

    monkeypatch.setattr(harness.os, "replace", exploding_replace)
    broken = good_payload()
    broken["metrics"] = {"total": 999.0}
    with pytest.raises(OSError):
        harness.write_result(broken, results_dir=tmp_path)
    # The committed emission is untouched and no temp file survives.
    assert json.loads((tmp_path / "F99.json").read_text()) == good
    assert [p.name for p in tmp_path.iterdir()] == ["F99.json"]


def test_write_result_creates_nested_results_dir(tmp_path):
    target = tmp_path / "a" / "b"
    path = harness.write_result(good_payload(), results_dir=target)
    assert path == target / "F99.json"
    harness.validate_file(path)


def test_concurrent_reader_never_sees_a_torn_emission(tmp_path):
    """Hammer write_result from one thread while another validates."""
    import threading

    stop = threading.Event()
    errors = []

    def writer():
        i = 0
        while not stop.is_set():
            payload = good_payload()
            payload["metrics"] = {"total": float(i)}
            harness.write_result(payload, results_dir=tmp_path)
            i += 1

    harness.write_result(good_payload(), results_dir=tmp_path)
    thread = threading.Thread(target=writer)
    thread.start()
    try:
        for _ in range(200):
            try:
                harness.validate_file(tmp_path / "F99.json")
            except Exception as exc:  # torn read
                errors.append(exc)
    finally:
        stop.set()
        thread.join()
    assert not errors


# ------------------------------------------------------- sizes_from_env

def test_sizes_from_env_defaults_when_unset(monkeypatch):
    monkeypatch.delenv("X_SIZES", raising=False)
    assert harness.sizes_from_env("X_SIZES", (4, 8)) == (4, 8)
    monkeypatch.setenv("X_SIZES", "   ")
    assert harness.sizes_from_env("X_SIZES", [4, 8]) == (4, 8)


def test_sizes_from_env_tolerates_messy_separators(monkeypatch):
    monkeypatch.setenv("X_SIZES", " 4, 8,,16 ,")
    assert harness.sizes_from_env("X_SIZES", ()) == (4, 8, 16)


def test_sizes_from_env_rejects_bad_values(monkeypatch):
    monkeypatch.setenv("X_SIZES", "4,eight")
    with pytest.raises(ValueError, match="X_SIZES"):
        harness.sizes_from_env("X_SIZES", ())
    monkeypatch.setenv("X_SIZES", "4,0")
    with pytest.raises(ValueError, match="X_SIZES"):
        harness.sizes_from_env("X_SIZES", ())
    monkeypatch.setenv("X_SIZES", "8,8")
    with pytest.raises(ValueError, match="duplicate"):
        harness.sizes_from_env("X_SIZES", ())
    monkeypatch.setenv("X_SIZES", ",,")
    with pytest.raises(ValueError, match="X_SIZES"):
        harness.sizes_from_env("X_SIZES", ())
