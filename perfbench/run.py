"""The repository benchmark: drive the sharded SHE engine end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cm-serial-zipf --seed 1 \
        --seconds 50 --trace 0
    python3 perfbench/run.py --workload all          # every workload

One run builds engines from ``src/`` through the public API only, from
this single load-generating process:

* ``--trace 0`` times engine set-up, then alternates closed-loop slices
  on one engine (next batch only after the last call returned;
  throughput) with open-loop segments on another at the workload's
  fixed offered rate (latency from each op's due time), checks every
  answer in an untimed reference pass and prints the end-to-end
  metrics.
* ``--trace 1`` splits ``--seconds`` between the same run untraced and
  then traced (so it takes as long as a ``--trace 0`` run), and prints
  the per-layer metrics (see ``tracing.LEDGER`` for which end-to-end
  metric each should move, and on which workload).

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give every metric with
its unit and sample count, the answer digests and the machine/build
fingerprint.  The exit code is non-zero when a correctness check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: share of ``--seconds`` spent in the closed loop; the open loop gets
#: the rest
CLOSED_SHARE = 0.3
#: one closed-loop slice plus one open-loop segment; a run alternates
#: them so both loops sample the whole run
ROUND_S = 5.0
#: engines built per round to time set-up; set-up time is the median
#: over every round, so it samples the whole run like the loops do
SETUP_PER_ROUND = 20
#: items fed through one unsharded sketch for the single-threaded baseline
BASELINE_ITEMS = 1 << 21
#: open-loop sample floors that make p99 / p90 meaningful
MIN_INGEST_SAMPLES = 1000
MIN_QUERY_SAMPLES = 100

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_mips": "Mips",
    "ingest_p50_ms": "ms",
    "query_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
#: open-loop tails printed with every run but not in BENCHMARK.json: on
#: a shared 2-vCPU host their run-to-run spread tracks the host's
#: contention (10-seed IQR/median up to 0.33 for ingest p99 and 0.66
#: for query p90), above the largest bound a gated metric may carry
REPORTED_TAILS = ("ingest_p99_ms", "query_p90_ms")


def _bootstrap() -> None:
    """Import the program from this checkout's ``src/`` or stop."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source under {src}")
    sys.path.insert(0, str(src))
    # the benchmark measures the default transport users get
    os.environ.pop("REPRO_TRANSPORT", None)
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"perfbench: repro imported from {repro.__file__}, not {src}")


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(transport: str) -> dict:
    import multiprocessing as mp

    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
        "transport": transport,
        # the workloads run in-process; this is how ProcessExecutor
        # would start workers here (fork where the platform allows it)
        "mp_start_method": (
            "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        ),
    }


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child process
    (the executor's workers, when it has any)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _measure(wl, seed: int, workdir: Path, seconds: float, rec=None,
             setups: list | None = None) -> dict:
    """Alternate closed-loop slices and open-loop segments on two fresh
    engines for ``seconds``; with a ``tracing.Recorder``, trace both.
    With a ``setups`` list, each round also times engine set-up into it."""
    from loadgen import Client, OpenLoop, closed_slice, time_setup
    from repro.obs import Observability
    from workloads import CLOSED, OPEN, KeyStream

    def build(name, stream_id):
        obs = Observability(enabled=True, telemetry=False) if rec else None
        engine, ckpt = wl.build(workdir / name, obs=obs)
        return Client(wl, engine, ckpt, KeyStream(wl.keys, seed, stream_id),
                      seed)

    def recording(phase, engine):
        return rec.recording(phase, engine) if rec else contextlib.nullcontext()

    drv_c = build("closed", CLOSED)
    try:
        drv_o = build("open", OPEN)
    except BaseException:
        drv_c.engine.close()
        raise
    depth = [0]

    def sample_depth():
        depth[0] = max(depth[0], max(drv_o.engine.queue_depths()))

    opened = OpenLoop(drv_o, sample_depth if rec else None)
    rounds = max(1, round(seconds / ROUND_S))
    items = busy = closed_wall = 0.0
    try:
        for _ in range(rounds):
            if setups is not None:
                setups += time_setup(wl, workdir / "setup", SETUP_PER_ROUND)
            t0 = time.perf_counter()
            with recording("closed", drv_c.engine):
                n, b = closed_slice(drv_c, seconds * CLOSED_SHARE / rounds)
            closed_wall += time.perf_counter() - t0
            items += n
            busy += b
            with recording("open", drv_o.engine):
                opened.run(seconds * (1 - CLOSED_SHARE) / rounds)
            drv_o.engine.flush()  # untimed: idle empty until the next segment
        stats = drv_o.engine.stats_snapshot(tick=False)
    finally:
        try:
            drv_c.engine.close()
        finally:
            drv_o.engine.close()
    return {
        "closed": drv_c,
        "open": drv_o,
        "mips": items / busy / 1e6,
        "rounds": rounds,
        "closed_wall_s": closed_wall,
        "loop": opened,
        "stats": stats,
        "queue_depth_max": depth[0],
    }


def _check(wl, seed, stream_id, drv):
    from check import check_queries, digest
    from workloads import KeyStream

    res = check_queries(wl, KeyStream(wl.keys, seed, stream_id),
                        drv.queries, drv.skipped)
    return res, digest(drv.queries)


def _baseline_mips(wl, seed) -> float:
    """Single-threaded baseline: the closed-loop stream through one
    unsharded sketch's ``insert_many``, block by block."""
    from workloads import BLOCK, CLOSED, KeyStream

    stream = KeyStream(wl.keys, seed, CLOSED)
    sketch = wl.reference_sketch()
    busy = 0.0
    for j in range(BASELINE_ITEMS // BLOCK):
        block = stream.block(j)
        t0 = time.perf_counter()
        sketch.insert_many(block)
        busy += time.perf_counter() - t0
    return BASELINE_ITEMS / busy / 1e6


def _end_to_end(wl, workdir: Path, seed: int, seconds: float, lines) -> tuple:
    from loadgen import median, percentile, windowed_percentile
    from workloads import CLOSED, OPEN

    setups: list[float] = []
    run = _measure(wl, seed, workdir, seconds, setups=setups)
    rss = _peak_rss_mb()
    loop = run["loop"]
    ing, qry = loop.ingest_ms, loop.query_ms

    def tail(values, q, what):
        value, k = windowed_percentile(values, q)
        return value, (f"n={len(values)} open-loop {what}, median of {k} "
                       "windows")

    metrics = {
        "setup_s": (median(setups), f"median of {len(setups)} engine builds "
                    f"over {run['rounds']} rounds"),
        "throughput_mips": (
            run["mips"],
            f"closed loop, {run['closed'].items} items in {run['rounds']} "
            "slices",
        ),
        "ingest_p50_ms": tail(ing, 50, "batches"),
        "query_p50_ms": tail(qry, 50, "queries"),
        "peak_rss_mb": (rss, "load generator + largest child process"),
    }
    reported = {
        "ingest_p99_ms": tail(ing, 99, "batches"),
        "query_p90_ms": tail(qry, 90, "queries"),
    }
    lines.append(
        f"open loop: {wl.offered_items_per_s / 1e6:g} Mips offered; batches "
        f"issued late by p50 {percentile(loop.late_ms, 50):.3f} / p99 "
        f"{percentile(loop.late_ms, 99):.3f} ms"
    )
    if len(ing) < MIN_INGEST_SAMPLES or len(qry) < MIN_QUERY_SAMPLES:
        lines.append(
            f"warning: open loop has {len(ing)} batches / {len(qry)} queries, "
            f"below the {MIN_INGEST_SAMPLES} / {MIN_QUERY_SAMPLES} a full-size "
            "run needs"
        )
    clients = [(CLOSED, run["closed"], "closed"),
               (OPEN, run["open"], "open")]
    return metrics, reported, clients


def _per_layer(wl, workdir: Path, seed: int, seconds: float) -> tuple:
    from tracing import LEDGER, Recorder
    from workloads import CLOSED, OPEN

    plain = _measure(wl, seed, workdir / "untraced", seconds / 2)
    baseline = _baseline_mips(wl, seed)
    rec = Recorder(wl.flush_batch_size)
    rec.install()
    try:
        traced = _measure(wl, seed, workdir / "traced", seconds / 2, rec)
    finally:
        rec.uninstall()
    rec.dump(ROOT / ".perfbench" / f"trace-{wl.name}-seed{seed}.jsonl")
    layer = rec.layer_metrics("open")
    layer.update({
        "engine.queue_depth.max": traced["queue_depth_max"],
        "loadgen.lag_end_ms": traced["loop"].lag_end_ms,
        "engine.items.shed": traced["stats"]["items_shed"],
        "engine.items.rejected": traced["stats"]["items_rejected"],
        "baseline.sketch_mips": baseline,
        "trace.unattributed_frac": (
            1.0 - rec.root_time("closed") / traced["closed_wall_s"]
        ),
        "trace.overhead_frac": 1.0 - traced["mips"] / plain["mips"],
    })
    note = {
        "baseline.sketch_mips": f"{BASELINE_ITEMS} items, one unsharded sketch",
        "trace.unattributed_frac": "traced closed loop",
        "trace.overhead_frac": (f"traced {traced['mips']:.4f} vs untraced "
                                f"{plain['mips']:.4f} Mips"),
    }
    metrics = {
        name: (layer[name], note.get(name, "traced open loop"))
        for name in LEDGER
    }
    clients = [(CLOSED, plain["closed"], "untraced-closed"),
               (OPEN, plain["open"], "untraced-open"),
               (CLOSED, traced["closed"], "traced-closed"),
               (OPEN, traced["open"], "traced-open")]
    return metrics, {}, clients


def run_workload(wl, seed: int, seconds: float, trace: bool) -> int:
    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    lines = [f"workload {wl.name}  seed {seed}  seconds {seconds:g}  "
             f"trace {int(trace)}"]
    try:
        if trace:
            metrics, reported, clients = _per_layer(wl, workdir, seed, seconds)
        else:
            metrics, reported, clients = _end_to_end(wl, workdir, seed,
                                                     seconds, lines)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    transport = clients[0][1].engine.config.transport
    attempted = sum(d.attempted for _s, d, _l in clients)
    failed = sum(d.failed for _s, d, _l in clients)
    correct = True
    for sid, drv, label in clients:
        res, dig = _check(wl, seed, sid, drv)
        failed += res.failed
        correct = correct and res.failed == 0
        note = "; ".join(res.notes)
        lines.append(
            f"check {label}: {res.checked} answers, {res.failed} failed, "
            f"digest {dig}" + (f" ({note})" if note else "")
        )
    lines.append("fingerprint " + json.dumps(fingerprint(transport)))
    for name, (value, note) in metrics.items():
        lines.append(f"  {name:28s} {value:14.6f} {_unit(name):6s} {note}")
    for name, (value, note) in reported.items():
        lines.append(f"  {name:28s} {value:14.6f} {'ms':6s} {note} "
                     "(reported, not in BENCHMARK.json)")
    lines.append(f"  {'failed_frac':28s} {failed / max(attempted, 1):14.6f} "
                 f"{'':6s} {failed} of {attempted} ingest calls + queries")
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": _unit(name)}
            for name, (value, _note) in metrics.items()
        },
    }))
    return 0 if correct else 1


def _unit(name: str) -> str:
    from tracing import LEDGER

    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    return LEDGER[name][0]


def _run_all(args) -> int:
    """Run every workload, each in a fresh interpreter."""
    from workloads import WORKLOADS

    status = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        out = proc.stdout.strip().splitlines()
        print("\n".join(out[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = 1
        if not out:
            combined["correct"] = False
            continue
        result = json.loads(out[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def _default_seconds() -> int:
    return int(json.loads((ROOT / "BENCHMARK.json").read_text())
               ["run_seconds"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    help="workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = _default_seconds()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    _bootstrap()
    from workloads import WORKLOADS

    if args.workload == "all":
        return _run_all(args)
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)} or 'all'")
    return run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
