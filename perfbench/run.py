"""Benchmark of the compile service's three paths, end to end.

    python3 perfbench/run.py --workload compile-cold --seed 1 --seconds 12 --trace 0

``--workload all`` runs the three workloads in turn.

Run from the root of a checkout.  Each run boots ``python -m
repro.serve.router`` in front of one ``python -m repro.serve`` shard
(default options, fresh directories under ``perfbench/out``), drives
one workload through one closed-loop ``ServeClient`` connection, checks
every reply, and prints one line per metric and, last, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

* ``--trace 0`` reports the end-to-end metrics.
* ``--trace 1`` runs the same window, then replays every request
  through the router, straight to the shard, and in process through
  the worker's job function and each compiler layer's public
  functions; it reports the per-layer metrics (``traced.py``).

The whole run is pinned to one CPU, which the daemons, their pool
workers and ``cc`` inherit, and every timing is calibrated against a
fixed kernel run on that CPU (``measure.py``); raw figures stay beside
the calibrated ones as ``host.raw_*``.  Results, spans and a history
line per metric go to ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import hashlib
import json
import os
import shutil
import signal
import socket
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

CHECK_SAMPLE = 6    # replies per run re-checked against in-process compiles

UNITS = {"setup_s": "s", "latency_p50_ms": "ms", "latency_p95_ms": "ms",
         "throughput_rps": "1/s", "peak_rss_mb": "MB",
         "vm_instructions": "count", "host.calib_ms": "ms",
         "host.raw_latency_p50_ms": "ms", "host.raw_throughput_rps": "1/s",
         "host.raw_setup_s": "s"}


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="compile-cold, hit-routed, run-native or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _pin_cpu() -> int:
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _source_digest() -> str:
    """Stands in for the commit: the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def _host(cpu: int) -> str:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return f"{socket.gethostname()}/{model}/cpu{cpu}"


def _on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


# ---------------------------------------------------------------------------
# set-up and the measured window
# ---------------------------------------------------------------------------

class Session:
    """One deployment plus the benchmark's connections to it."""

    def __init__(self, deployment):
        self.deployment = deployment
        self.client = None   # through the router: the measured path
        self.direct = None   # straight to the shard: stats and replays

    def close(self) -> None:
        for client in (self.client, self.direct):
            if client is not None:
                client.close()
        self.deployment.close()


def _ready(session: Session) -> None:
    from repro.serve.client import ServeClient

    dep = session.deployment
    session.client = ServeClient("127.0.0.1", dep.router_port,
                                 retry_overloaded=False)
    session.direct = ServeClient("127.0.0.1", dep.shard_port,
                                 retry_overloaded=False)
    for client in (session.client, session.direct):
        if not client.ping().get("pong"):
            raise RuntimeError("deployment does not answer ping")


def set_up(workload, calib, sessions: list) -> tuple[Session, dict]:
    """Boot, wait for ping, warm; each step timed between kernel samples."""
    from deploy import Deployment

    session = Session(Deployment(OUT, SRC))
    sessions.append(session)
    dep = session.deployment
    steps = {"shard": dep.boot_shard, "router": dep.boot_router,
             "ready": lambda: _ready(session),
             "warm": lambda: workload.warm(session.client, session.direct)}
    timing = {"raw_s": 0.0, "calibrated_s": 0.0, "steps": {}}
    for name, step in steps.items():
        _, raw_s, cal_s = calib.timed_step(step)
        timing["steps"][name] = {"raw_s": raw_s, "calibrated_s": cal_s}
        timing["raw_s"] += raw_s
        timing["calibrated_s"] += cal_s
    return session, timing


def measure_window(workload, session: Session, calib, positions) -> dict:
    """Drive one slice of the draw through the router, one request at a
    time."""
    from repro.serve.client import ServeClientError

    problems = []
    client_cpu = 0.0
    stats_before = session.direct.stats()
    cpu_before = session.deployment.cpu()
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        calib.tick()
        for position in positions:
            message = workload.message(position)
            cpu0 = time.process_time()
            started = time.perf_counter()
            try:
                reply = session.client.request(message)
                problem = None
            except ServeClientError as exc:
                reply, problem = None, f"transport failure: {exc}"
            elapsed = time.perf_counter() - started
            client_cpu += time.process_time() - cpu0
            calib.record(elapsed * 1000.0)
            if reply is not None:
                problem = workload.check(position, reply)
            if problem:
                problems.append({"position": position, "problem": problem})
        calib.finish()
    finally:
        gc.enable()
        gc.unfreeze()
    stats_after = session.direct.stats()
    return {"problems": problems, "client_cpu_s": client_cpu,
            "cpu": {name: session.deployment.cpu()[name] - value
                    for name, value in cpu_before.items()},
            "peak_rss_mb": session.deployment.peak_rss_mb(),
            "stats_before": stats_before, "stats_after": stats_after,
            "window_problem": workload.window_problem(
                stats_before, stats_after, len(positions))}


def check_sample(workload) -> list[str]:
    """Replies of a seeded sample against in-process compiles.

    Artifacts must be byte-identical to ``compile_request`` on the same
    source; non-suite programs also run on the VM against the
    interpreter reference (suite programs get that check from
    ``vm_instructions``).
    """
    if workload.name == "run-native":
        return []  # every reply was checked against the reference
    from layers import compile_replay, vm_run
    from measure import observe_json
    from repro.serve.worker import compile_request

    problems = []
    for position in workload.sample(CHECK_SAMPLE):
        index = workload.order[position]
        program = workload.programs[index]
        source = workload.source(position)
        reference = compile_request({"source": source, "opt": "static"})
        got = workload.first.get(index)
        if got != {k: reference[k] for k in ("ir", "c", "bytecode")}:
            problems.append(f"{program['name']}: service artifacts differ "
                            f"from compile_request")
        if program["family"] != "suite":
            replay = compile_replay(source, None, position)
            observed, _, _ = vm_run(replay["compiled"], program["entry"],
                                    program["args"])
            if observe_json(observed) != observe_json(program["reference"]):
                problems.append(f"{program['name']}: VM differs from the "
                                f"interpreter")
    return problems


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def run(args, name: str, sessions: list, cpu: int) -> dict:
    from measure import Calibrator, K_NOMINAL_MS, percentile
    from workloads import SLICES, WORKLOADS
    import layers
    import repro.serve.client  # noqa: F401  (imported before set-up is timed)

    catalogue = json.loads((HERE / "catalogue.json").read_text())["programs"]
    workload = WORKLOADS[name](catalogue, args.seed, args.seconds)

    # Each set-up is followed by its slice of the draw, so a run pools
    # its latencies over SLICES fresh deployments and no single
    # deployment's luck (memory layout, hash seed) sets the figures.
    setup_calib = Calibrator()
    setups, slices, calibs = [], [], []
    for positions in workload.slices():
        while sessions:
            sessions.pop().close()
        session, timing = set_up(workload, setup_calib, sessions)
        setups.append(timing)
        calibs.append(Calibrator())
        slices.append(measure_window(workload, session, calibs[-1],
                                     positions))
    cal = [value for calib in calibs for value in calib.calibrated()]
    raw = [value for calib in calibs for value in calib.raw()]
    k_samples = [value for calib in calibs for value in calib.samples]
    n = len(cal)
    window = {"slices": slices, "factor": sum(cal) / sum(raw),
              "client_cpu_s": sum(w["client_cpu_s"] for w in slices),
              "cpu": {role: sum(w["cpu"][role] for w in slices)
                      for role in slices[0]["cpu"]}}
    problems = [f"request {p['position']}: {p['problem']}"
                for w in slices for p in w["problems"]]
    problems += [w["window_problem"] for w in slices if w["window_problem"]]
    problems += check_sample(workload)

    suite = [p for p in catalogue if p["family"] == "suite"]
    vm = layers.vm_instructions(suite)
    problems += [f"{name}: VM differs from the interpreter"
                 for name in vm["mismatches"]]

    metrics = {
        "setup_s": (statistics.median(s["calibrated_s"] for s in setups),
                    SLICES),
        "latency_p50_ms": (percentile(cal, 50), n),
        "latency_p95_ms": (percentile(cal, 95), n),
        "throughput_rps": (n / (sum(cal) / 1000.0), n),
        "peak_rss_mb": (statistics.median(w["peak_rss_mb"] for w in slices),
                        SLICES),
        "vm_instructions": (vm["total"], len(suite)),
    }
    host = {
        "host.calib_ms": (statistics.median(k_samples), len(k_samples)),
        "host.raw_latency_p50_ms": (percentile(raw, 50), n),
        "host.raw_throughput_rps": (n / (sum(raw) / 1000.0), n),
        "host.raw_setup_s": (statistics.median(s["raw_s"] for s in setups),
                             SLICES),
    }
    failed = sum(len(w["problems"]) for w in slices)
    result = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "commit": _source_digest(), "host": _host(cpu),
        "k_nominal_ms": K_NOMINAL_MS, "passes": workload.passes,
        "draw": [workload.programs[i]["name"] for i in workload.order],
        "latencies_ms": cal,
        "setups": setups, "problems": problems,
        "attempted": n, "failed": failed, "error_ratio": failed / n,
        "end_to_end": metrics, "host_metrics": host,
    }
    if args.trace:
        import traced

        result["per_layer"], spans, trace_problems = traced.run(
            workload, session, window, result, suite)
        result["problems"] += trace_problems
        result["spans"] = spans
    return result


def _report(result: dict) -> dict:
    """Print every metric by name and unit; returns the final object."""
    name = result["workload"]
    for metric, (value, samples) in result["end_to_end"].items():
        print(f"{name}  {metric} = {value:.6g} {UNITS[metric]}  "
              f"(n={samples})")
    print(f"{name}  error_ratio = {result['error_ratio']:.6g} ratio  "
          f"(n={result['attempted']})")
    for metric, (value, samples) in result["host_metrics"].items():
        print(f"{name}  {metric} = {value:.6g} {UNITS[metric]}  "
              f"(n={samples})")
    for problem in result["problems"][:20]:
        print(f"{name}  PROBLEM: {problem}")
    if result["trace"]:
        from traced import PER_LAYER
        metrics = {}
        for metric, unit in PER_LAYER:
            value, samples = result["per_layer"][metric]
            print(f"{name}  {metric} = {value:.6g} {unit}  (n={samples})")
            metrics[metric] = {"value": value, "unit": unit}
    else:
        metrics = {metric: {"value": value, "unit": UNITS[metric]}
                   for metric, (value, _) in result["end_to_end"].items()}
    return {"correct": not result["problems"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def _save(result: dict, summary: dict) -> None:
    """The run's record and one history line per reported metric."""
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{result['workload']}-seed{result['seed']}-trace{result['trace']}"
    (results / f"{stem}.json").write_text(json.dumps(result, indent=1))
    stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    samples = {**result["end_to_end"], **result.get("per_layer", {})}
    with open(OUT / "history.jsonl", "a") as history:
        for metric, entry in summary["metrics"].items():
            history.write(json.dumps({
                "time": stamp, "workload": result["workload"],
                "seed": result["seed"], "metric": metric,
                "unit": entry["unit"], "value": entry["value"],
                "samples": samples[metric][1], "commit": result["commit"],
                "host": result["host"],
                "calib_ms": result["host_metrics"]["host.calib_ms"][0],
            }) + "\n")


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: {SRC}/repro not found; run from the root of a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        print(f"perfbench: unknown workload {args.workload!r}; expected one "
              f"of {', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _on_sigterm)
    scratch = OUT / f"tmp-{os.getpid()}"
    status = 0
    try:
        cpu = _pin_cpu()
        # The daemons boot from cached bytecode whether or not the
        # environment lets Python write it, so set-up times compare.
        compileall.compile_dir(str(SRC), quiet=1)
        scratch.mkdir(parents=True, exist_ok=True)
        os.environ["TMPDIR"] = str(scratch)
        tempfile.tempdir = str(scratch)
        sys.path.insert(0, str(SRC))
        for name in names:
            if not _run_one(args, name, cpu)["correct"]:
                status = 1
    except Exception:
        traceback.print_exc()
        status = 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return status


def _run_one(args, name: str, cpu: int) -> dict:
    """One workload: measure, tear down, then report and save."""
    sessions: list = []
    try:
        result = run(args, name, sessions, cpu)
    finally:
        while sessions:
            sessions.pop().close()
    summary = _report(result)
    _save(result, summary)
    print(json.dumps(summary))
    return summary


if __name__ == "__main__":
    sys.exit(main())
