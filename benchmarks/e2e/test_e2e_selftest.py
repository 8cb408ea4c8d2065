"""Self-test of the benchmark (collected by the tier-1 suite, ~3 s).

``--smoke`` variants of two workloads go through both passes and must
emit every metric ``BENCHMARK.json`` names; the pure helpers (stack
bucketing, latency pooling, verdicts) are unit-tested; the gates must
refuse a drifted workload and a run that does not repeat.
"""

import json
import pathlib
import re
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

CONTRACT = run.load_contract()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# ------------------------------------------------------------ the contract
def test_contract_file_is_well_formed():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert [w["name"] for w in CONTRACT["workloads"]] == list(
        workloads.WORKLOADS)
    names = [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    assert len(names) == len(set(names))
    for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    assert any(m == {"name": "setup_s", "unit": "s", "better": "lower",
                     "bound": m["bound"]} for m in CONTRACT["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])


@pytest.mark.parametrize("workload", sorted(workloads.SMOKE_WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_emits_every_declared_metric(workload, trace):
    record = run.measure(workload, seed=7, seconds=0.0, trace=trace,
                         smoke=True)
    line = json.loads(run.result_line(record, CONTRACT))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    section = CONTRACT["per_layer" if trace else "end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in section]
    for m in section:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if trace:
        shares = sum(v["value"] for k, v in line["metrics"].items()
                     if k.endswith(".self_share")
                     and k != "rostering.setup_self_share")
        assert shares == pytest.approx(100.0, abs=1.0)
    else:
        assert all(v["value"] > 0 for v in line["metrics"].values())
        assert record["reps"] >= 2


def test_cli_prints_the_result_object_last():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "storm_n64",
         "--seed", "3", "--seconds", "0", "--trace", "0", "--smoke"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last["metrics"]) == {m["name"] for m in CONTRACT["end_to_end"]}
    assert "nproc=" in proc.stdout and "loadavg=" in proc.stdout


# ---------------------------------------------------------------- the gates
def test_drifted_scenario_is_refused(monkeypatch):
    monkeypatch.setitem(workloads.PINS, "kernel_storm", "0" * 64)
    with pytest.raises(workloads.WorkloadDrift, match="kernel_storm"):
        workloads.resolve(workloads.WORKLOADS["storm_n64"], seed=7)


def test_every_pin_matches_the_library():
    for workload in workloads.WORKLOADS.values():
        workloads.resolve(workload, seed=7)


def test_reps_that_differ_fail_the_gate():
    smoke = workloads.SMOKE_WORKLOADS["chaos_mix"]
    a = run.run_rep(workloads.resolve(smoke, seed=1))
    b = run.run_rep(workloads.resolve(smoke, seed=2))
    run.check_reps([a, a])
    with pytest.raises(run.GateError, match="differs from rep 1"):
        run.check_reps([a, b])


# -------------------------------------------------------------- pure helpers
def test_bucket_stack_self_is_innermost_program_frame():
    stack = ["hashlib", "repro.sim.kernel", "repro.ring.mac", "repro.node",
             "repro.phys.link", "repro.sim.kernel", "repro.cluster",
             "repro.scenarios.runner", "__main__"]
    self_layer, inclusive = tracing.bucket_stack(stack)
    assert self_layer == "sim"
    assert inclusive == {"sim", "ring", "node", "phys", "cluster",
                         "scenarios"}


def test_bucket_stack_without_program_frames_is_other():
    assert tracing.bucket_stack(["gc", "__main__"]) == ("other", set())
    assert tracing.bucket_stack([]) == ("other", set())


def test_routed_cluster_facade_is_not_the_routing_layer():
    assert tracing.layer_of_module("repro.routing.cluster") == "cluster"
    assert tracing.layer_of_module("repro.routing.router") == "routing"
    assert tracing.layer_of_module("repro.node") == "node"
    assert tracing.layer_of_module("reprox.ring") is None


def test_latency_pool_spans_every_stream_of_the_round():
    class Run:
        def __init__(self, samples):
            self.ledger = {"latencies": samples}

    runs = [Run([10, 30]), Run([20]), Run([])]
    pool = run.pooled_latency(runs)
    assert sorted(pool.samples) == [10, 20, 30]
    assert pool.percentile(50) == 20
    assert all("latencies" not in r.ledger for r in runs)


def test_spread_reports_median_and_quartiles():
    assert run.spread([5.0]) == {"value": 5.0, "q1": 5.0, "q3": 5.0, "n": 1}
    s = run.spread([1.0, 2.0, 3.0, 4.0, 100.0])
    assert s["value"] == 3.0 and s["n"] == 5
    assert s["q1"] < s["value"] < s["q3"]


def _m(value, q1=None, q3=None):
    return {"value": value, "q1": value if q1 is None else q1,
            "q3": value if q3 is None else q3}


def test_relative_verdicts():
    v = compare.relative_verdict
    assert v(_m(10.0), _m(10.5), 0.10, "lower") == "same"
    assert v(_m(10.0), _m(11.5), 0.10, "lower") == "regressed"
    assert v(_m(10.0), _m(8.0), 0.10, "lower") == "improved"
    assert v(_m(10.0), _m(8.0), 0.10, "higher") == "regressed"
    # spread wider than the bound: no verdict unless B is clear of A
    assert v(_m(10.0, 9.0, 11.5), _m(10.2), 0.10, "lower") == "unresolved"
    assert v(_m(10.0, 9.0, 11.5), _m(8.5, 8.4, 8.6), 0.10, "lower") == "improved"


def test_exact_metric_drift_is_a_regression():
    def doc(p50, failed=0):
        values = {m["name"]: {"value": 1.0, "q1": 1.0, "q3": 1.0, "n": 3}
                  for m in CONTRACT["end_to_end"]}
        values.update({m["name"]: {"value": 7, "q1": 7, "q3": 7, "n": 1}
                       for m in CONTRACT["per_layer"]
                       if m["name"].startswith("sim_")})
        values["sim_latency_p50_ns"]["value"] = p50
        return {"seed": 7, "workloads": {"w": {"untraced": {
            "values": values, "failed": failed}}}}

    verdicts = {(metric, verdict) for _, metric, _, _, verdict
                in compare.rows(doc(100), doc(100), CONTRACT)}
    assert {v for _, v in verdicts} == {"same"}
    drift = {metric: verdict for _, metric, _, _, verdict
             in compare.rows(doc(100), doc(101), CONTRACT)}
    assert drift["sim_latency_p50_ns"] == "regressed"
    assert drift["wall_s"] == "same"
    failed = {metric: verdict for _, metric, _, _, verdict
              in compare.rows(doc(100), doc(100, failed=1), CONTRACT)}
    assert failed["failed_ops"] == "regressed"
