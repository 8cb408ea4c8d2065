"""The repo's one benchmark: four workloads, host + simulated metrics,
a per-layer ledger from a traced run.  See README.md in this directory.

One workload in this process (what the driver of ``BENCHMARK.json``
calls; the last line of output is the result object)::

    python3 benchmarks/e2e/run.py --workload ring_255 --seed 7 --seconds 12 --trace 0

Every workload, each in a fresh process, into one JSON document::

    python3 benchmarks/e2e/run.py --seed 7 --trace 1 --out benchmarks/e2e/results/baseline.json

The program is measured from outside, through its public API only:
``get_scenario`` / ``ScenarioSpec.with_size`` / ``ScenarioRunner(phase_hook=)``,
``PerfProbe``, the ``counters`` of MACs, messengers, routers and caches.
Load is a batch of fixed simulated work (the generators inside the
simulation are open-loop on *simulated* time); the host metrics are the
wall seconds that fixed work takes, not a rate sweep.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import multiprocessing
import os
import pathlib
import platform
import pstats
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

try:
    from repro.analysis import ring_drop_count, total_mac_counter
    from repro.micropacket import BROADCAST
    from repro.perf import PerfProbe
    from repro.scenarios import ScenarioRunner, ScenarioSpec
    from repro.sim import LatencyStat, Simulator
except ModuleNotFoundError as exc:
    sys.exit(f"benchmarks/e2e: the program is not in this checkout ({exc})")

from tracing import SpanLog, StackSampler, layer_of_module
from workloads import SMOKE_WORKLOADS, WORKLOADS, Workload, WorkloadDrift, resolve

SCHEMA = "repro-e2e/1"
CONTRACT_PATH = ROOT / "BENCHMARK.json"
#: Chrome traces of traced runs land here (git-ignored)
TRACE_DIR = HERE / "out"

#: the traced pass samples until the window phase holds this many samples
MIN_WINDOW_SAMPLES = 600
MAX_SAMPLED_REPS = 8
#: no-op posts timed through the bare kernel (``sim.drive_*``)
DRIVE_POSTS = 1_000_000
DRIVE_BATCH = 100_000

#: layers that get their own ``*.self_share``; every other sampled
#: bucket is folded into ``other`` so the shares still sum to 100
SHARE_LAYERS = (
    "sim", "phys", "ring", "kernel", "node", "micropacket", "rostering",
    "transport", "routing", "membership", "caching", "resilience",
    "workloads",
)
MAC_COUNTS = ("tx_inserted", "tx_transit", "rx_delivered", "tours_lost")
TRANSPORT_COUNTS = (
    "fragments_sent", "fragments_retransmitted", "duplicate_fragments",
    "messages_confirmed",
)
ROUTING_COUNTS = (
    "fragments_captured", "egress_tx", "ads_tx", "ad_bytes_tx",
    "shadow_parked", "shadow_promoted", "duplicate_fragments",
)
CACHE_COUNTS = ("hits", "misses", "origin_fetches")


# ------------------------------------------------------------ one scenario
def layer_counts(runner: ScenarioRunner) -> Dict[str, int]:
    """Cumulative work counters of every layer, read from outside."""
    cluster = runner.cluster
    nodes = list(cluster.nodes.values())
    out = {f"ring.{c}": total_mac_counter(cluster, c) for c in MAC_COUNTS}
    out["ring.drops"] = ring_drop_count(cluster)
    out["rostering.roster_installs"] = total_mac_counter(
        cluster, "roster_installs"
    )
    for c in TRANSPORT_COUNTS:
        out[f"transport.{c}"] = sum(n.messenger.counters[c] for n in nodes)
    out["membership.gossip_tx"] = sum(
        n.membership.counters["gossip_tx"]
        for n in nodes if n.membership is not None
    )
    routers = (
        cluster.router_counter_totals()
        if hasattr(cluster, "router_counter_totals") else {}
    )
    for c in ROUTING_COUNTS:
        out[f"routing.{c}"] = routers.get(c, 0)
    caches = (
        runner.cache_deployment.counter_totals()
        if runner.cache_deployment is not None else {}
    )
    for c in CACHE_COUNTS:
        # service-tier caches plus the routers' on-path content taps
        out[f"caching.{c}"] = caches.get(c, 0) + routers.get(f"cache_{c}", 0)
    return out


def delivery_ledger(runner: ScenarioRunner) -> Dict[str, Any]:
    """Expected vs delivered per stream, and every latency sample."""
    expected = delivered = failed = 0
    latencies: List[int] = []
    n_nodes = len(runner.cluster.nodes)
    for w in runner.workloads:
        if hasattr(w, "expected_deliveries"):  # broadcast generators
            want = w.expected_deliveries()
        else:
            want = w.count * (n_nodes - 1 if w.dst == BROADCAST else 1)
        if isinstance(w.stats, dict):  # all-to-all: one StreamStats per source
            streams = list(w.stats.values())
            got = w.total_delivered()
        else:
            streams = [w.stats]
            got = w.stats.delivered
        expected += want
        delivered += got
        failed += abs(want - got)  # missing or duplicated
        for s in streams:
            latencies.extend(s.latency.samples)
    return {"expected": expected, "delivered": delivered, "failed": failed,
            "latencies": latencies}


@dataclass
class ScenarioRun:
    """What one ``ScenarioRunner.run()`` left behind."""

    spec: ScenarioSpec
    result: Any
    #: perf_counter (entered, left) pairs of ``start``, every phase hook
    #: and ``end``; a span runs from one stamp's exit to the next's entry
    marks: Dict[str, Any]
    events_ringup: int
    window: Any  # PerfReport of armed -> settled
    counts: Dict[str, int]  # layer counters over the window
    ledger: Dict[str, Any]

    def span_s(self, begin: str, end: str) -> float:
        return self.marks[end][0] - self.marks[begin][1]


def run_scenario(
    spec: ScenarioSpec,
    count_layers: bool = False,
    on_phase: Optional[Callable[[str], None]] = None,
) -> ScenarioRun:
    """One fresh run, stamped at every lifecycle boundary.

    A phase ends when the runner enters the hook and the next begins
    when the hook returns, so the benchmark's own reads (counter
    snapshots, probe windows) are charged to no phase.
    """
    marks: Dict[str, Any] = {}
    seen: Dict[str, Any] = {}

    def hook(label: str) -> None:
        entered = time.perf_counter()
        sim = runner.cluster.sim
        if label in ("built", "ring_up"):
            seen[label] = sim.events_processed
        elif label == "armed":
            seen["counts"] = layer_counts(runner)
            seen["probe"] = PerfProbe(sim, per_kind=count_layers)
            seen["probe"].start()
        elif label == "settled":
            seen["window"] = seen["probe"].stop()
            after = layer_counts(runner)
            seen["counts"] = {k: after[k] - seen["counts"][k] for k in after}
        if on_phase is not None:
            on_phase(label)
        marks[label] = (entered, time.perf_counter())

    runner = ScenarioRunner(spec, phase_hook=hook)
    gc.collect()
    if on_phase is not None:
        on_phase("start")
    marks["start"] = (time.perf_counter(),) * 2
    result = runner.run()
    marks["end"] = (time.perf_counter(),) * 2
    if on_phase is not None:
        on_phase("end")
    return ScenarioRun(
        spec=spec, result=result, marks=marks,
        events_ringup=seen["ring_up"] - seen["built"],
        window=seen["window"], counts=seen["counts"],
        ledger=delivery_ledger(runner),
    )


# ------------------------------------------------------------------ one rep
@dataclass
class Rep:
    """One round of a workload: its scenarios run back to back."""

    runs: List[ScenarioRun]
    kind: str  # plain | counted | sampled
    #: the round's simulated statistics; they repeat exactly
    simulated: Dict[str, float]

    def total(self, begin: str, end: str) -> float:
        return sum(r.span_s(begin, end) for r in self.runs)

    @property
    def setup_s(self) -> float:
        return self.total("start", "armed")

    @property
    def wall_s(self) -> float:
        return self.total("armed", "settled")

    @property
    def events(self) -> int:
        return sum(r.window.events for r in self.runs)

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for r in self.runs:
            for k, v in r.counts.items():
                out[k] = out.get(k, 0) + v
        return out

    def layer_events(self) -> Dict[str, int]:
        """Window schedule entries per layer (counted reps only)."""
        out: Dict[str, int] = {}
        for r in self.runs:
            for kind, n in r.window.by_layer.items():
                layer = kind.split(".", 1)[0]
                out[layer] = out.get(layer, 0) + n
        return out

    def signature(self) -> Dict[str, Any]:
        """Everything that must be identical from rep to rep."""
        return {
            "digests": [r.result.trace_digest for r in self.runs],
            "events": [r.window.events for r in self.runs],
            "simulated": self.simulated,
            "counts": self.counts(),
        }

    def violations(self) -> List[str]:
        out = []
        for r in self.runs:
            res, name = r.result, r.spec.name
            if not res.ok:
                out.append(f"{name}: invariants failed: " + "; ".join(
                    f"{i.name} ({i.detail})" for i in res.failures()))
            if r.ledger["failed"]:
                out.append(
                    f"{name}: delivered {r.ledger['delivered']} of "
                    f"{r.ledger['expected']} expected")
            if "no_drops" in r.spec.invariants and res.counters["ring_drops"]:
                out.append(f"{name}: {res.counters['ring_drops']} ring drops")
        return out


def pooled_latency(runs: List[ScenarioRun]) -> LatencyStat:
    """Every stream's delivery-latency samples of the round in one pool."""
    pool = LatencyStat()
    for r in runs:
        pool.extend(r.ledger.pop("latencies"))
    return pool


def run_rep(specs: List[ScenarioSpec], kind: str = "plain",
            on_phase: Optional[Callable[[str], None]] = None) -> Rep:
    runs = [run_scenario(s, count_layers=(kind == "counted"),
                         on_phase=on_phase) for s in specs]
    pool = pooled_latency(runs)  # raw samples are dropped: RSS stays flat
    return Rep(runs, kind, {
        "sim_latency_p50_ns": pool.percentile(50),
        "sim_latency_p99_ns": pool.percentile(99),
        "sim_latency_samples": pool.count,
        "sim_ringup_tours": max(
            r.result.ring_up_ns / r.result.tour_ns for r in runs),
    })


# --------------------------------------------------------------- statistics
def spread(values: List[float]) -> Dict[str, Any]:
    """Median with quartiles and the sample count."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def exact(value: float) -> Dict[str, Any]:
    return {"value": value, "q1": value, "q3": value, "n": 1}


class GateError(Exception):
    """The program's outputs were wrong; no numbers are printed."""


def check_reps(reps: List[Rep]) -> None:
    problems = [v for rep in reps for v in rep.violations()]
    reference = reps[0].signature()
    for i, rep in enumerate(reps[1:], start=2):
        sig = rep.signature()
        for key in reference:
            if sig[key] != reference[key]:
                problems.append(
                    f"rep {i} ({rep.kind}) differs from rep 1 "
                    f"({reps[0].kind}) in {key}: the run is not repeatable "
                    f"or an observer changed it")
    if problems:
        raise GateError("\n".join(problems))


# ------------------------------------------------------------- the two passes
def drive_kernel(posts: int, spill: bool) -> float:
    """ns of host time per no-op entry through the bare scheduler.

    Delays are spread over one timer-wheel lap, either inside the
    current lap or (``spill``) one lap further out, which sends every
    post through the overflow heap first.
    """
    def noop() -> None:
        pass

    lap = Simulator().scheduler_stats()["wheel_slots"]
    base = lap if spill else 0
    spent = 0.0
    done = 0
    while done < posts:
        sim = Simulator()
        batch = min(DRIVE_BATCH, posts - done)
        gc.collect()
        t0 = time.perf_counter()
        for i in range(batch):
            sim.call_in(base + i % lap, noop)
        sim.run()
        spent += time.perf_counter() - t0
        spilled = sim.scheduler_stats()["overflow_spills"]
        if sim.events_processed != batch or spilled != (batch if spill else 0):
            raise GateError(
                f"kernel drive: {sim.events_processed} of {batch} entries "
                f"ran, {spilled} spilled (spill={spill})")
        done += batch
    return spent * 1e9 / posts


class GcClock:
    """Wall seconds the collector ran, per sampler phase."""

    def __init__(self, sampler: StackSampler) -> None:
        self.sampler = sampler
        self.seconds: Dict[str, float] = {}
        self._t0 = 0.0

    def __call__(self, phase: str, _info: Dict[str, int]) -> None:
        if phase == "start":
            self._t0 = time.perf_counter()
        else:
            label = self.sampler.phase
            self.seconds[label] = (
                self.seconds.get(label, 0.0) + time.perf_counter() - self._t0
            )


def untraced_pass(specs: List[ScenarioSpec], workload: Workload,
                  seconds: float) -> List[Rep]:
    """Plain reps until ``seconds`` of measuring are spent (and at least
    the workload's floor, so a median is a median)."""
    reps: List[Rep] = []
    began = time.perf_counter()
    while (len(reps) < workload.min_reps
           or time.perf_counter() - began < seconds):
        reps.append(run_rep(specs))
    return reps


def traced_pass(specs: List[ScenarioSpec], workload: Workload,
                smoke: bool) -> Dict[str, Any]:
    """One plain rep (the reference), one counted rep (exact per-layer
    schedule entries; the observer costs ~40 % so its times are not
    used), then sampled reps until the window holds enough samples."""
    reps = [run_rep(specs), run_rep(specs, "counted")]
    sampler = StackSampler()
    gc_clock = GcClock(sampler)

    def on_phase(label: str) -> None:
        sampler.phase = {"start": "setup", "armed": "window",
                         "settled": "judge", "end": "idle"}.get(
                             label, sampler.phase)

    floor = 1 if smoke else MIN_WINDOW_SAMPLES
    gc.callbacks.append(gc_clock)
    try:
        with sampler:
            while (sampler.samples("window") < floor
                   and len(reps) - 2 < MAX_SAMPLED_REPS):
                reps.append(run_rep(specs, "sampled", on_phase))
    finally:
        gc.callbacks.remove(gc_clock)
    return {"reps": reps, "sampler": sampler, "gc": gc_clock.seconds}


def span_log(reps: List[Rep], workload: str) -> SpanLog:
    """``run > rep > scenario > {build, ring_up, arm, window, judge}``
    from the stamps every rep keeps anyway."""
    log = SpanLog()
    root = log.add(f"run {workload}", reps[0].runs[0].marks["start"][0],
                   reps[-1].runs[-1].marks["end"][1])
    phases = ("start", "built", "ring_up", "armed", "settled", "end")
    names = ("build", "ring_up", "arm", "window", "judge")
    for i, rep in enumerate(reps, start=1):
        rep_id = log.add(f"rep {i} ({rep.kind})",
                         rep.runs[0].marks["start"][0],
                         rep.runs[-1].marks["end"][1], root)
        for r in rep.runs:
            m = r.marks
            sc_id = log.add(r.spec.name, m["start"][0], m["end"][1], rep_id)
            for name, begin, end in zip(names, phases, phases[1:]):
                log.add(name, m[begin][1], m[end][0], sc_id)
    return log


def measure(workload_name: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> Dict[str, Any]:
    """Run one workload in this process; returns its record.

    Raises :class:`WorkloadDrift` or :class:`GateError` instead of
    returning numbers from a load that changed or a run that was wrong.
    """
    workload = (SMOKE_WORKLOADS if smoke else WORKLOADS)[workload_name]
    specs = resolve(workload, seed)
    values: Dict[str, Dict[str, Any]] = {}
    if trace:
        traced = traced_pass(specs, workload, smoke)
        reps = traced["reps"]
    else:
        reps = untraced_pass(specs, workload, seconds)
    check_reps(reps)

    timed = [r for r in reps if r.kind != "counted"]
    first = reps[0]
    deliveries = sum(r.ledger["delivered"] for r in first.runs)
    values["setup_s"] = spread([r.setup_s for r in timed])
    values["wall_s"] = spread([r.wall_s for r in timed])
    values["peak_rss_mb"] = exact(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )
    for name, v in first.simulated.items():
        values[name] = exact(v)
    for name, v in first.counts().items():
        values[name] = exact(v)
    values["sim.events"] = exact(first.events)
    values["sim.events_per_delivery"] = exact(first.events / deliveries)
    values["sim.overflow_spills"] = exact(sum(
        r.window.scheduler["overflow_spills"] for r in first.runs))
    values["sim.pacer_coalesced"] = exact(sum(
        r.window.scheduler["mac_pacer_coalesced"] for r in first.runs))
    values["sim.events_per_s"] = spread([r.events / r.wall_s for r in timed])
    values["sim.us_per_event"] = spread(
        [1e6 * r.wall_s / r.events for r in timed])
    ringup_events = sum(r.events_ringup for r in first.runs)
    values["rostering.ringup_events"] = exact(ringup_events)
    values["rostering.ringup_events_per_s"] = spread(
        [ringup_events / r.total("built", "ring_up") for r in timed])
    values["scenarios.build_s"] = spread(
        [r.total("start", "built") for r in timed])
    values["scenarios.judge_s"] = spread(
        [r.total("settled", "end") for r in timed])

    if trace:
        sampler = traced["sampler"]
        counted = reps[1].layer_events()
        for layer in ("phys", "ring", "rostering", "routing", "membership"):
            values[f"{layer}.events"] = exact(counted.get(layer, 0))
        self_w, incl_w = sampler.shares("window")
        self_s, _ = sampler.shares("setup")
        for layer in SHARE_LAYERS:
            values[f"{layer}.self_share"] = exact(self_w.get(layer, 0.0))
            values[f"{layer}.incl_share"] = exact(incl_w.get(layer, 0.0))
        values["other.self_share"] = exact(sum(
            v for layer, v in self_w.items() if layer not in SHARE_LAYERS))
        values["rostering.setup_self_share"] = exact(
            self_s.get("rostering", 0.0))
        n_sampled = sum(1 for r in reps if r.kind == "sampled")
        values["gc.setup_s"] = exact(traced["gc"].get("setup", 0.0) / n_sampled)
        values["gc.window_s"] = exact(
            traced["gc"].get("window", 0.0) / n_sampled)
        values["trace.samples"] = exact(sampler.samples("window"))
        values["trace.overhead_ratio"] = exact(
            statistics.median(r.wall_s for r in reps if r.kind == "sampled")
            / first.wall_s)
        posts = DRIVE_POSTS // 50 if smoke else DRIVE_POSTS
        values["sim.drive_ns_per_event"] = exact(drive_kernel(posts, False))
        values["sim.drive_spill_ns_per_event"] = exact(
            drive_kernel(posts, True))
        TRACE_DIR.mkdir(exist_ok=True)
        span_log(reps, workload_name).write_chrome_trace(
            TRACE_DIR / f"trace-{workload_name}.json")

    return {
        "workload": workload_name,
        "seed": seed,
        "trace": int(trace),
        "reps": len(reps),
        "attempted": sum(
            r.ledger["expected"] for rep in reps for r in rep.runs),
        "failed": sum(r.ledger["failed"] for rep in reps for r in rep.runs),
        "digests": first.signature()["digests"],
        "values": values,
    }


# ------------------------------------------------------------------- output
def load_contract() -> Dict[str, Any]:
    with open(CONTRACT_PATH) as fh:
        return json.load(fh)


def contract_metrics(record: Dict[str, Any], contract: Dict[str, Any],
                     with_simulated: bool = False) -> Dict[str, Dict[str, Any]]:
    """The metrics ``BENCHMARK.json`` names for this pass, with its units.

    ``with_simulated`` adds the simulated end-to-end statistics
    (``sim_*``) to an untraced pass: they are declared per-layer only
    because the contract's end-to-end metrics must vary from run to run,
    and these repeat exactly.
    """
    declared = contract["per_layer" if record["trace"] else "end_to_end"]
    if with_simulated and not record["trace"]:
        declared = declared + [
            m for m in contract["per_layer"] if m["name"].startswith("sim_")]
    return {
        m["name"]: dict(record["values"][m["name"]], unit=m["unit"])
        for m in declared
    }


def print_header(seed: int, seconds: float) -> None:
    load = ", ".join(f"{x:.2f}" for x in os.getloadavg())
    print(f"benchmarks/e2e  seed={seed}  seconds={seconds:g}  "
          f"nproc={os.cpu_count()}  loadavg={load}  "
          f"python={platform.python_version()}")


def print_record(record: Dict[str, Any], contract: Dict[str, Any]) -> None:
    metrics = contract_metrics(record, contract, with_simulated=True)
    kind = "traced" if record["trace"] else "untraced"
    print(f"\n== {record['workload']} ({kind}, {record['reps']} reps, "
          f"{record['attempted']} ops, {record['failed']} failed) ==")
    for name, m in metrics.items():
        tail = ""
        if m["n"] > 1:
            tail = f"   [q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']}]"
        print(f"  {name:<34} {m['value']:>16.6g} {m['unit']:<8}{tail}")
    if record["trace"]:
        shares = sum(m["value"] for name, m in metrics.items()
                     if name.endswith(".self_share")
                     and name != "rostering.setup_self_share")
        print(f"  (window self shares sum to {shares:.1f} % over "
              f"{record['values']['trace.samples']['value']} samples)")


def result_line(record: Dict[str, Any], contract: Dict[str, Any]) -> str:
    """The driver's result object: this pass's declared metrics only."""
    metrics = contract_metrics(record, contract)
    return json.dumps({
        "correct": True,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in metrics.items()
        },
    })


# ------------------------------------------------------------ all workloads
def _child(conn, args: tuple) -> None:
    try:
        conn.send(measure(*args))
    except (WorkloadDrift, GateError) as exc:
        conn.send(exc)
    finally:
        conn.close()


def measure_in_subprocess(*args) -> Dict[str, Any]:
    """A fresh interpreter per workload, so ``peak_rss_mb`` is its own."""
    ctx = multiprocessing.get_context("spawn")
    parent, child = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_child, args=(child, args))
    proc.start()
    child.close()
    try:
        outcome = parent.recv()
    except EOFError:
        outcome = GateError(f"the process measuring {args[0]} died")
    proc.join()
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def run_all(args, contract: Dict[str, Any]) -> Dict[str, Any]:
    table = SMOKE_WORKLOADS if args.smoke else WORKLOADS
    document: Dict[str, Any] = {
        "schema": SCHEMA,
        "seed": args.seed,
        "seconds": args.seconds,
        "host": {
            "nproc": os.cpu_count(),
            "loadavg": list(os.getloadavg()),
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "workloads": {},
    }
    for name in table:
        entry = document["workloads"][name] = {}
        for trace in ([False, True] if args.trace else [False]):
            record = measure_in_subprocess(
                name, args.seed, args.seconds, trace, args.smoke)
            print_record(record, contract)
            entry["traced" if trace else "untraced"] = record
    return document


# --------------------------------------------------------------- cross-check
def crosscheck(seed: int) -> None:
    """``storm_n64`` once under cProfile, ``tottime`` bucketed like the
    sampler's stacks, beside the sampler's own shares.

    The two disagree by design: cProfile charges its per-call hook to
    whatever makes many cheap calls (the upper layers), the sampler
    charges C-level work to the Python frame that called it.
    """
    workload = WORKLOADS["storm_n64"]
    specs = resolve(workload, seed)
    sampled = traced_pass(specs, workload, smoke=False)
    plain = sampled["reps"][0]
    profile = cProfile.Profile()
    profile.enable()
    profiled = run_rep(specs)
    profile.disable()
    check_reps(sampled["reps"] + [profiled])

    tottime: Dict[str, float] = {}
    src = str(ROOT / "src") + os.sep
    for (filename, _line, _fn), (_cc, _nc, tt, _ct, _callers) in \
            pstats.Stats(profile).stats.items():
        module = ""
        if filename.startswith(src):
            module = filename[len(src):-len(".py")].replace(os.sep, ".")
        layer = layer_of_module(module) or "other"
        tottime[layer] = tottime.get(layer, 0.0) + tt
    total = sum(tottime.values())
    sampled_self, _ = sampled["sampler"].shares("window")
    sampled_all: Dict[str, int] = {}
    for (phase, layer), n in sampled["sampler"].self_counts.items():
        if phase != "idle":  # between reps: the benchmark's own code
            sampled_all[layer] = sampled_all.get(layer, 0) + n
    n_all = sum(sampled_all.values())
    print(f"storm_n64 whole rep: plain {plain.setup_s + plain.wall_s:.3f} s, "
          f"under cProfile {profiled.setup_s + profiled.wall_s:.3f} s")
    print(f"  {'layer':<14}{'cProfile tottime %':>20}{'sampled self %':>16}"
          f"{'sampled, window only %':>24}")
    for layer in sorted(set(tottime) | set(sampled_all),
                        key=lambda k: -tottime.get(k, 0.0)):
        print(f"  {layer:<14}{100 * tottime.get(layer, 0.0) / total:>20.1f}"
              f"{100 * sampled_all.get(layer, 0) / n_all:>16.1f}"
              f"{sampled_self.get(layer, 0.0):>24.1f}")


# ---------------------------------------------------------------------- main
def main(argv: Optional[List[str]] = None) -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="measure this one workload in this process "
                             "(default: all, each in a fresh process)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float,
                        default=contract["run_seconds"],
                        help="keep repeating the untraced workload until "
                             "this much time is spent")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced pass (per-layer metrics)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny variants of two workloads (self-test)")
    parser.add_argument("--out", help="with all workloads: write the JSON "
                                      "document here")
    parser.add_argument("--crosscheck", action="store_true",
                        help="compare the sampler with cProfile on storm_n64")
    args = parser.parse_args(argv)
    if args.smoke and args.workload not in (None, *SMOKE_WORKLOADS):
        parser.error(f"--smoke has only {', '.join(SMOKE_WORKLOADS)}")

    print_header(args.seed, args.seconds)
    try:
        if args.crosscheck:
            crosscheck(args.seed)
            return 0
        if args.workload is None:
            document = run_all(args, contract)
            if args.out:
                with open(args.out, "w") as fh:
                    json.dump(document, fh, indent=1, sort_keys=True)
                    fh.write("\n")
                print(f"\nwrote {args.out}")
            return 0
        record = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), args.smoke)
    except WorkloadDrift as exc:
        print(f"workload drift: {exc}", file=sys.stderr)
        return 2
    except GateError as exc:
        print(f"correctness gate failed, no numbers printed:\n{exc}",
              file=sys.stderr)
        return 1
    print_record(record, contract)
    print(result_line(record, contract))
    return 0


if __name__ == "__main__":
    sys.exit(main())
