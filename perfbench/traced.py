"""The traced run: the measured window's latency split across layers.

After the untraced window (same seed, same deployment), every request
of the draw is replayed three ways, each call a span recorded in the
benchmark's own process:

* through the router (``serve.client.routed``);
* straight to the shard's port (``serve.client.direct``);
* in process, through ``repro.serve.worker``'s job function
  (``serve.worker.job``), unless the request was a cache hit.

The client codec is replayed in process too.  A compile is also
replayed through each compiler layer's public functions
(``layers.compile_replay``); a run request through ``NativeModule.run``
on a ``.so`` built once per program with ``emit_native_c`` and
``compile_shared``.  Replays keep the request's cache outcome:
compile-cold replays are re-salted so that they still miss.

The replay differences telescope into the routed latency::

    routed = hop + (direct - codec - job) + codec + job

where the middle term is ``core.pool.overhead_ms`` on the compile and
run paths and ``serve.server.hit_ms`` on the hit path; the run checks
the sum.  On ``compile-cold`` the hop is the difference of two cold
compiles of tens of milliseconds and sits within their noise.  The in-process layer self times must add up to
``serve.worker.job_ms`` within ``JOB_SUM_TOLERANCE``.  Counts come from
the same boundaries and are computed twice; the run fails if any pair
differs.

On ``hit-routed`` and ``run-native`` the measured path does no compiler
work, so the frontend, transform and backend figures there describe the
``vm_instructions`` compiles of the 14 suite programs.
"""

from __future__ import annotations

import gc
import json
import statistics
import time

from measure import Calibrator, SpanRecorder, observe_json, percentile
from workloads import stat_delta

# The layer self times of an in-process compile (or native run) must
# add up to the job function's time on the same request within this
# share, or within JOB_SUM_FLOOR_MS per request when that is larger: the
# two are separate executions of the same work, and the job function's
# own glue (dispatch, result dicts) sits at no public function boundary.
JOB_SUM_TOLERANCE = 0.25
JOB_SUM_FLOOR_MS = 0.1

PASSES = ("partial_eval", "closure_elim", "inline", "lambda_drop",
          "mem_opt", "cleanup")
COMPILE_LAYERS = ("frontend.parse", "frontend.sema", "frontend.emit",
                  "frontend.cleanup", "transform.optimize", "backend.print",
                  "backend.c_emit", "backend.codegen", "backend.disasm")
COUNTS = {"transform.rollbacks": "rollbacks", "transform.rounds": "rounds",
          "transform.specialized": "specialized",
          "transform.mangled": "mangled", "transform.inlined": "inlined",
          "transform.dropped": "dropped",
          "transform.mem_rewrites": "mem_rewrites",
          "transform.analysis_hits": "analysis_hits",
          "transform.analysis_misses": "analysis_misses",
          "core.world.continuations": "continuations",
          "core.world.primops": "primops", "backend.c_bytes": "c_bytes",
          "backend.bytecode_instructions": "bytecode_instructions"}

PER_LAYER = (
    ("serve.client.codec_ms", "ms"), ("serve.client.reply_kb", "KB"),
    ("serve.client.cpu_ms", "ms"),
    ("serve.router.hop_ms", "ms"), ("serve.router.cpu_ms", "ms"),
    ("serve.server.hit_ms", "ms"), ("serve.server.request_mean_ms", "ms"),
    ("serve.server.cpu_ms", "ms"),
    ("serve.cache.memory_hit_ratio", "ratio"),
    ("serve.cache.misses", "count"), ("serve.cache.puts", "count"),
    ("core.pool.overhead_ms", "ms"), ("core.pool.crashes", "count"),
    ("serve.worker.job_ms", "ms"), ("serve.worker.cpu_ms", "ms"),
    ("native.tiering.native_ratio", "ratio"),
    ("native.tiering.native_compiles", "count"),
    ("native.tiering.quarantined", "count"),
    ("frontend.parse_ms", "ms"), ("frontend.sema_ms", "ms"),
    ("frontend.emit_ms", "ms"), ("frontend.cleanup_ms", "ms"),
    ("frontend.source_kb", "KB"),
    ("transform.optimize_ms", "ms"),
    *((f"transform.{name}_ms", "ms") for name in PASSES),
    ("transform.rolled_back_ms", "ms"), ("transform.rollbacks", "count"),
    ("transform.rounds", "count"), ("transform.specialized", "count"),
    ("transform.mangled", "count"), ("transform.inlined", "count"),
    ("transform.dropped", "count"), ("transform.mem_rewrites", "count"),
    ("transform.analysis_hits", "count"),
    ("transform.analysis_misses", "count"),
    ("core.world.continuations", "count"), ("core.world.primops", "count"),
    ("backend.print_ms", "ms"), ("backend.c_emit_ms", "ms"),
    ("backend.codegen_ms", "ms"), ("backend.disasm_ms", "ms"),
    ("backend.c_bytes", "bytes"), ("backend.bytecode_instructions", "count"),
    ("backend.vm_exec_ms", "ms"),
    ("native.emit_ms", "ms"), ("native.cc_ms", "ms"),
    ("native.exec_us", "us"),
    ("host.calib_ms", "ms"), ("host.raw_latency_p50_ms", "ms"),
    ("host.raw_throughput_rps", "1/s"), ("host.raw_setup_s", "s"),
    ("trace.overhead_pct", "%"),
)


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _payload_bytes(reply: dict, kind: str) -> int:
    """Reply bytes that do not carry timings (compile stats do)."""
    from repro.serve.protocol import encode_message

    if kind == "compile-cold":
        return sum(len(reply["artifacts"][k].encode())
                   for k in ("ir", "c", "bytecode"))
    return len(encode_message(reply))


class _Compiles:
    """Per-compile layer figures: span self times, pass times, counts."""

    def __init__(self):
        self.rows: list[dict] = []

    def add(self, replay: dict, spans, self_times: dict, factor: float,
            source: str) -> float:
        """Adds one compile; *factor* turns raw seconds into calibrated
        ms.  Returns the sum of its layer self times."""
        from layers import rolled_back_s

        row = {layer: 0.0 for layer in COMPILE_LAYERS}
        total = 0.0
        for span in spans:
            ms = self_times[span.index] * factor
            total += ms
            if span.layer in row:
                row[span.layer] += ms
        stats = replay["stats"]
        for name in PASSES:
            row[f"transform.{name}"] = stats["timings"].get(name, 0.0) * factor
        row["transform.rolled_back"] = rolled_back_s(stats) * factor
        row["counts"] = replay["counts"]
        row["source_kb"] = len(source.encode()) / 1024.0
        self.rows.append(row)
        return total

    def metrics(self) -> dict:
        n = len(self.rows)
        out = {f"{layer}_ms": (_mean(r[layer] for r in self.rows), n)
               for layer in COMPILE_LAYERS}
        for name in (*PASSES, "rolled_back"):
            out[f"transform.{name}_ms"] = (
                _mean(r[f"transform.{name}"] for r in self.rows), n)
        out["frontend.source_kb"] = (_mean(r["source_kb"]
                                           for r in self.rows), n)
        for metric, field in COUNTS.items():
            out[metric] = (_mean(r["counts"][field] for r in self.rows), n)
        return out


def _native_job(program: dict, native: dict) -> dict:
    """The worker job the shard sends for a native-tier run request."""
    from repro.native import DEFAULT_FUEL
    from repro.serve.cache import run_cache_key

    message = {"op": "run", "source": program["source"],
               "entry": program["entry"], "args": program["args"],
               "options": {}}
    return {**message, "tier": "native", "key": run_cache_key(message),
            "native": native, "fuel": DEFAULT_FUEL}


def _build_native(programs, directory, calib: Calibrator) -> dict:
    """``emit_native_c`` + ``compile_shared`` once per program."""
    import layers
    from repro.native import NativeModule, compile_shared, emit_native_c

    built = {}
    for index, program in enumerate(programs):
        world = layers.compile_replay(program["source"], None, index)["world"]
        k_before = calib.burst()
        started = time.perf_counter()
        c_source, entry_meta = emit_native_c(world)
        emitted = time.perf_counter()
        so_path = directory / f"{program['name']}.so"
        compile_shared(c_source, so_path)
        done = time.perf_counter()
        factor = calib.nominal_ms * 2000.0 / (k_before + calib.burst())
        built[index] = {
            "native": {"so": str(so_path), "entry_meta": entry_meta},
            "module": NativeModule(so_path, entry_meta),
            "emit_ms": (emitted - started) * factor,
            "cc_ms": (done - emitted) * factor}
    return built


def _replay(workload, session, native: dict, recorder: SpanRecorder,
            calib: Calibrator):
    """Replay every request of the draw; returns rows and problems."""
    import layers
    from repro.serve.protocol import encode_message
    from repro.serve.worker import compile_request, run_request

    kind = workload.name
    problems: list[str] = []
    rows = []
    payloads: dict[int, set] = {}
    counts: dict[int, list] = {}
    for position, index in enumerate(workload.order):
        program = workload.programs[index]
        first_span = len(recorder.spans)
        row = {}
        routed_msg = workload.message(position, "/routed")
        with recorder.span("serve.client.routed", position) as span:
            routed = session.client.request(routed_msg)
        row["routed"] = span
        direct_msg = workload.message(position, "/direct")
        with recorder.span("serve.client.direct", position) as span:
            direct = session.direct.request(direct_msg)
        row["direct"] = span
        with recorder.span("serve.client.codec", position) as span:
            encode_message(direct_msg)
            line = encode_message(direct)
            json.loads(line)
        row["codec"] = span
        row["reply_kb"] = len(line) / 1024.0
        for tag, reply in (("routed", routed), ("direct", direct)):
            problem = workload.check(position, reply)
            if problem:
                problems.append(f"{tag} replay {position}: {problem}")
                continue
            payloads.setdefault(index, set()).add(_payload_bytes(reply, kind))

        if kind == "compile-cold":
            job = {"op": "compile", "opt": "static",
                   "source": workload.source(position, "/job")}
            with recorder.span("serve.worker.job", position) as span:
                job_result = compile_request(job)
            row["job"] = span
            row["source"] = workload.source(position, "/layers")
            replay = layers.compile_replay(row["source"], recorder, position)
            row["replay"] = {"stats": replay["stats"],
                             "counts": replay["counts"]}
            if replay["artifacts"] != workload.first[index]:
                problems.append(f"layer replay {position}: artifacts differ")
            # Determinism: the same counts from four computations.
            views = [layers.pipeline_counts(stats) for stats in (
                routed["artifacts"]["stats"], direct["artifacts"]["stats"],
                job_result["stats"], replay["stats"])]
            c_bytes = {len(r["c"].encode()) for r in (
                routed["artifacts"], direct["artifacts"], job_result)}
            c_bytes.add(replay["counts"]["c_bytes"])
            if any(v != views[0] for v in views) or len(c_bytes) != 1:
                problems.append(f"{program['name']}: counts differ between "
                                f"computations of request {position}")
            counts.setdefault(index, []).append(replay["counts"])
        elif kind == "run-native":
            built = native[index]
            job = _native_job(program, built["native"])
            with recorder.span("serve.worker.job", position) as span:
                job_result = run_request(job)
            row["job"] = span
            with recorder.span("native.exec", position) as span:
                run = built["module"].run(program["entry"],
                                          program["args"][0],
                                          fuel=job["fuel"])
            row["exec"] = span
            observed = [{"value": run.result, "trap": run.trap,
                         "output": run.output}]
            reference = observe_json(program["reference"])
            if (observe_json(job_result["results"]) != reference
                    or observe_json(observed) != reference):
                problems.append(f"in-process run {position}: results "
                                f"differ from the interpreter")
        row["spans"] = recorder.spans[first_span:]
        row["op"] = calib.record(sum(s.duration for s in row["spans"]
                                     if s.parent is None) * 1000.0)
        rows.append(row)

    for index, seen in counts.items():
        if any(c != seen[0] for c in seen):
            problems.append(f"{workload.programs[index]['name']}: counts "
                            f"differ between occurrences")
    for index, seen in payloads.items():
        if len(seen) != 1:
            problems.append(f"{workload.programs[index]['name']}: reply "
                            f"payload sizes differ: {sorted(seen)}")
    return rows, problems


def run(workload, session, window: dict, result: dict, suite: list):
    """Replay the draw; returns ``(per_layer, spans, problems)``."""
    import layers

    kind = workload.name
    recorder = SpanRecorder()
    calib = Calibrator()
    calib.tick()
    native = {}
    if kind == "run-native":
        from repro.serve.worker import run_request

        directory = session.deployment.dir / "traced"
        directory.mkdir()
        native = _build_native(workload.programs, directory, calib)
        for index, built in native.items():  # loads each .so in process
            run_request(_native_job(workload.programs[index],
                                    built["native"]))
    gc.collect()
    gc.freeze()
    try:
        rows, problems = _replay(workload, session, native, recorder, calib)
    finally:
        gc.unfreeze()
    calib.finish()

    # vm_instructions twice: the determinism guard.
    vm_recorder = SpanRecorder()
    k_before = calib.burst()
    vm_first = layers.vm_instructions(suite, vm_recorder)
    vm_factor = calib.nominal_ms * 2000.0 / (k_before + calib.burst())
    vm_second = layers.vm_instructions(suite)
    if vm_first["per_program"] != vm_second["per_program"]:
        problems.append("vm_instructions or compile counts differ between "
                        "two computations")

    # Calibrate each request's spans with the kernel samples around it.
    self_times = recorder.self_times()
    compiles = _Compiles()
    ms = []
    layer_total = job_total = 0.0
    for row in rows:
        f = calib.nominal_ms / calib.adjacent_k(calib.ops[row["op"]][1])
        f *= 1000.0
        cal = {k: row[k].duration * f
               for k in ("routed", "direct", "codec", "job", "exec")
               if k in row}
        cal["hop"] = cal["routed"] - cal["direct"]
        cal["server"] = cal["direct"] - cal["codec"] - cal.get("job", 0.0)
        cal["reply_kb"] = row["reply_kb"]
        if kind == "compile-cold":
            spans = [s for s in row["spans"] if s.layer not in (
                "serve.client.routed", "serve.client.direct",
                "serve.client.codec", "serve.worker.job")]
            layer_total += compiles.add(row["replay"], spans, self_times, f,
                                        row["source"])
            job_total += cal["job"]
        elif kind == "run-native":
            layer_total += cal["exec"]
            job_total += cal["job"]
        ms.append(cal)
    if kind != "compile-cold":
        vm_self = vm_recorder.self_times()
        for index, program in enumerate(suite):
            spans = [s for s in vm_recorder.spans if s.request == index]
            compiles.add({"stats": vm_first["stats"][program["name"]],
                          "counts": vm_first["per_program"][program["name"]]},
                         spans, vm_self, vm_factor, program["source"])

    # The decomposition must add up to the routed latency.
    n = len(ms)
    routed_mean = _mean(m["routed"] for m in ms)
    parts = {name: _mean(m.get(name, 0.0) for m in ms)
             for name in ("hop", "server", "codec", "job")}
    if abs(sum(parts.values()) - routed_mean) > 1e-9 * max(1.0, routed_mean):
        problems.append(f"replay differences {sum(parts.values()):.6f} ms "
                        f"do not add up to the routed {routed_mean:.6f} ms")
    job_sum_gap = None
    if job_total:
        job_sum_gap = layer_total / job_total - 1.0
        allowed = max(JOB_SUM_TOLERANCE * job_total, JOB_SUM_FLOOR_MS * n)
        if abs(layer_total - job_total) > allowed:
            problems.append(
                f"layer self times differ from the job time by "
                f"{job_sum_gap:+.1%} (tolerance {JOB_SUM_TOLERANCE:.0%} or "
                f"{JOB_SUM_FLOOR_MS} ms per request)")

    # Counters and CPU from the untraced window of this same run,
    # summed over its slices.
    def delta(*path) -> float:
        return sum(stat_delta(w["stats_after"], w["stats_before"], *path)
                   for w in window["slices"])

    def hist_sum_ms(stats: dict) -> float:
        hist = stats["latency"].get(hist_name, {})
        return hist.get("mean_ms", 0.0) * hist.get("count", 0)

    final = session.direct.stats()
    hist_name = {"compile-cold": "compile_cold", "hit-routed":
                 "compile_cached", "run-native": "run"}[kind]
    served = delta("latency", hist_name, "count")
    served_ms = sum(hist_sum_ms(w["stats_after"])
                    - hist_sum_ms(w["stats_before"])
                    for w in window["slices"])
    lookups = sum(delta("cache", k)
                  for k in ("hits_memory", "hits_disk", "misses"))
    runs = delta("tiering", "run_requests")
    crashes = (delta("worker_crashes") + final["worker_crashes"]
               - window["slices"][-1]["stats_after"]["worker_crashes"])
    attempted = result["attempted"]
    per_request = 1000.0 * window["factor"] / attempted
    cpu = window["cpu"]
    host = result["host_metrics"]
    per_layer = {
        "serve.client.codec_ms": (parts["codec"], n),
        "serve.client.reply_kb": (_mean(m["reply_kb"] for m in ms), n),
        "serve.client.cpu_ms": (window["client_cpu_s"] * per_request,
                                attempted),
        "serve.router.hop_ms": (parts["hop"], n),
        "serve.router.cpu_ms": (cpu["router"] * per_request, attempted),
        "serve.server.hit_ms": (
            parts["server"] if kind == "hit-routed" else 0.0, n),
        "serve.server.request_mean_ms": (
            served_ms / served * window["factor"], served),
        "serve.server.cpu_ms": (cpu["shard"] * per_request, attempted),
        "serve.cache.memory_hit_ratio": (
            delta("cache", "hits_memory") / lookups if lookups else 0.0,
            lookups),
        "serve.cache.misses": (delta("cache", "misses"), attempted),
        "serve.cache.puts": (served if kind == "compile-cold" else 0,
                             attempted),
        "core.pool.overhead_ms": (
            parts["server"] if kind != "hit-routed" else 0.0, n),
        "core.pool.crashes": (crashes, 1),
        "serve.worker.job_ms": (parts["job"], n),
        "serve.worker.cpu_ms": (cpu["workers"] * per_request, attempted),
        "native.tiering.native_ratio": (
            delta("tiering", "served_native") / runs if runs else 0.0, runs),
        "native.tiering.native_compiles": (
            final["tiering"]["native_compiles"], 1),
        "native.tiering.quarantined": (
            final["tiering"]["native_quarantined"], 1),
        **compiles.metrics(),
        "backend.vm_exec_ms": (vm_first["exec_s"] * vm_factor / len(suite),
                               len(suite)),
        "native.emit_ms": (_mean(b["emit_ms"] for b in native.values()),
                           len(native)),
        "native.cc_ms": (_mean(b["cc_ms"] for b in native.values()),
                         len(native)),
        "native.exec_us": (_mean(m.get("exec", 0.0) for m in ms) * 1000.0,
                           n),
        "host.calib_ms": host["host.calib_ms"],
        "host.raw_latency_p50_ms": host["host.raw_latency_p50_ms"],
        "host.raw_throughput_rps": host["host.raw_throughput_rps"],
        "host.raw_setup_s": host["host.raw_setup_s"],
        "trace.overhead_pct": (
            (percentile([m["routed"] for m in ms], 50)
             / result["end_to_end"]["latency_p50_ms"][0] - 1.0) * 100.0, n),
    }
    result["trace_checks"] = {
        "replay_parts_ms": parts, "routed_mean_ms": routed_mean,
        "job_sum_gap": job_sum_gap, "job_sum_tolerance": JOB_SUM_TOLERANCE,
        "job_sum_floor_ms": JOB_SUM_FLOOR_MS,
        "replay_calib_ms": statistics.median(calib.samples)}
    return per_layer, [s.as_dict() for s in recorder.spans], problems
