"""The three workloads: what each sends, how it warms, what it checks.

All three draw from ``catalogue.json`` in whole passes (every entry
once per pass, in seeded order), so every run does the same work and the
seed changes only the order and the salts.  The number of passes
follows from ``--seconds`` and a nominal request rate fixed per
workload, never from how fast this host happens to be.
"""

from __future__ import annotations

import math
import random
import time

from measure import MIN_BEYOND, draw, observe_json

# At least this many requests per run, so p95 has ten samples beyond it.
MIN_REQUESTS = 20 * MIN_BEYOND
# Deployments a run's draw is spread over (whole passes each).
SLICES = 3
NATIVE_WAIT_S = 120.0


class Workload:
    name = ""
    why = ""
    # Requests per second on the nominal host; sizes the draw.
    nominal_rps = 1.0

    def __init__(self, catalogue: list[dict], seed: int, seconds: int):
        self.seed = seed
        self.programs = [p for p in catalogue if self.include(p)]
        per_group = len(self.programs) * SLICES
        self.passes = SLICES * max(
            math.ceil(MIN_REQUESTS / per_group),
            round(seconds * self.nominal_rps / per_group))
        self.order = draw(seed, len(self.programs), self.passes)
        self.first: dict[int, dict] = {}  # program index -> artifacts

    def include(self, program: dict) -> bool:
        return True

    def slices(self) -> list[range]:
        """The draw cut into SLICES runs of whole passes, one per set-up."""
        size = len(self.order) // SLICES
        return [range(i * size, (i + 1) * size) for i in range(SLICES)]

    def sample(self, size: int) -> list[int]:
        """Seeded positions whose replies are re-checked in process."""
        rng = random.Random(f"sample:{self.seed}")
        return sorted(rng.sample(range(len(self.order)),
                                 min(size, len(self.order))))

    def source(self, position: int, replay: str = "") -> str:
        return self.programs[self.order[position]]["source"]

    def message(self, position: int, replay: str = "") -> dict:
        return {"op": "compile", "opt": "static",
                "source": self.source(position, replay)}

    def warm(self, client, direct) -> None:
        """Workload-specific warm-up after the deployment answers ping."""

    def check(self, position: int, reply: dict | None) -> str | None:
        raise NotImplementedError

    def window_problem(self, before: dict, after: dict, n: int) -> str | None:
        raise NotImplementedError

    # -- shared checks ------------------------------------------------------

    def _check_artifacts(self, position: int, reply: dict,
                         cached) -> str | None:
        if not reply.get("ok"):
            return f"error reply: {reply.get('error')}"
        if reply.get("cached") != cached:
            return f"cached={reply.get('cached')!r}, expected {cached!r}"
        artifacts = reply["artifacts"]
        got = {k: artifacts.get(k) for k in ("ir", "c", "bytecode")}
        if any(v is None for v in got.values()):
            return "missing artifact"
        index = self.order[position]
        first = self.first.setdefault(index, got)
        if first != got:
            return "artifacts differ from this program's first reply"
        return None


def stat_delta(after: dict, before: dict, *path) -> int:
    """Change of one ``stats`` counter between two snapshots."""
    a, b = after, before
    for key in path:
        a = (a or {}).get(key, 0)
        b = (b or {}).get(key, 0)
    return (a or 0) - (b or 0)


class CompileCold(Workload):
    name = "compile-cold"
    why = ("every request a cache miss (unique trailing comment): frontend, "
           "pipeline, backend emitters and the cache write path")
    nominal_rps = 16.0

    def source(self, position: int, replay: str = "") -> str:
        program = self.programs[self.order[position]]
        return (f"{program['source']}\n// perfbench {self.seed}:{position}"
                f"{replay}\n")

    def warm(self, client, direct) -> None:
        # One throwaway compile loads the worker's compiler modules and
        # opens the router's link, so the window starts warm.
        reply = client.compile("fn main(x: i64) -> i64 { x + 1 }\n"
                               f"// perfbench warm {time.time_ns()}\n")
        if not reply.get("ok"):
            raise RuntimeError(f"warm-up compile failed: {reply}")

    def check(self, position, reply):
        return self._check_artifacts(position, reply, False)

    def window_problem(self, before, after, n):
        misses = stat_delta(after, before, "cache", "misses")
        hits = (stat_delta(after, before, "cache", "hits_memory")
                + stat_delta(after, before, "cache", "hits_disk"))
        coalesced = stat_delta(after, before, "counters", "coalesced")
        if (misses, hits, coalesced) != (n, 0, 0):
            return (f"window not 100% misses: {misses} misses, {hits} hits, "
                    f"{coalesced} coalesced for {n} requests")
        return None


class HitRouted(Workload):
    name = "hit-routed"
    why = ("warm hits cycled over a working set smaller than the shard's "
           "memory LRU: client codec, router hop and the shard hit path only")
    nominal_rps = 520.0

    def warm(self, client, direct) -> None:
        for index, program in enumerate(self.programs):
            reply = client.compile(program["source"])
            if not reply.get("ok") or reply.get("cached"):
                raise RuntimeError(
                    f"warm-up compile of {program['name']} failed: "
                    f"{reply.get('error')}")
            artifacts = reply["artifacts"]
            self.first[index] = {k: artifacts.get(k)
                                 for k in ("ir", "c", "bytecode")}

    def check(self, position, reply):
        return self._check_artifacts(position, reply, "memory")

    def window_problem(self, before, after, n):
        memory = stat_delta(after, before, "cache", "hits_memory")
        other = (stat_delta(after, before, "cache", "hits_disk")
                 + stat_delta(after, before, "cache", "misses"))
        if (memory, other) != (n, 0):
            return (f"window not 100% memory hits: {memory} memory hits, "
                    f"{other} other lookups for {n} requests")
        return None


class RunNative(Workload):
    name = "run-native"
    why = ("tiered run requests at steady state on the native tier: tiering, "
           "the fork-pool pipe and a ctypes call on every request")
    nominal_rps = 580.0

    def include(self, program):
        return program["family"] == "suite"

    def message(self, position: int, replay: str = "") -> dict:
        program = self.programs[self.order[position]]
        return {"op": "run", "source": program["source"],
                "entry": program["entry"], "args": program["args"]}

    def warm(self, client, direct) -> None:
        # interp, interp, vm, vm (the fourth request marks the key hot and
        # starts a PGO native compile); the run key excludes arguments,
        # so small warm-up arguments drive the same key.
        for _ in range(4):
            for program in self.programs:
                self._warm_run(client, program, None)
        deadline = time.monotonic() + NATIVE_WAIT_S
        while True:
            tiering = direct.stats()["tiering"]
            states = tiering["native_states"]
            if states["ready"] == len(self.programs):
                break
            if states["quarantined"] or time.monotonic() > deadline:
                raise RuntimeError(f"programs did not reach native: {states}")
            time.sleep(0.005)
        for program in self.programs:  # loads each .so in the worker
            self._warm_run(client, program, "native")

    @staticmethod
    def _warm_run(client, program, tier) -> None:
        reply = client.run(program["source"], [program["warm_args"]],
                           entry=program["entry"])
        if not reply.get("ok") or (tier and reply.get("tier") != tier):
            raise RuntimeError(f"warm-up run of {program['name']} failed: "
                               f"{reply.get('error') or reply.get('tier')}")

    def check(self, position, reply):
        if not reply.get("ok"):
            return f"error reply: {reply.get('error')}"
        if reply.get("tier") != "native":
            return f"served on tier {reply.get('tier')}"
        program = self.programs[self.order[position]]
        if observe_json(reply["results"]) != \
                observe_json(program["reference"]):
            return f"{program['name']}: results differ from the interpreter"
        return None

    def window_problem(self, before, after, n):
        native = stat_delta(after, before, "tiering", "served_native")
        runs = stat_delta(after, before, "tiering", "run_requests")
        if (native, runs) != (n, n):
            return (f"window not 100% native: {native} native of {runs} run "
                    f"requests for {n} sent")
        return None


WORKLOADS = {w.name: w for w in (CompileCold, HitRouted, RunNative)}
