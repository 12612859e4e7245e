"""Tiered-execution policy for the serve daemon.

Each *key* (one ``run``-request program: source × entry × options) owns
a tiny state machine::

    interp --(warm)--> vm --(hot + compile ok)--> native
                        \\--(compile/run failure)--> quarantined (vm)

The first ``INTERP_RUNS`` requests execute on the graph interpreter —
zero compilation latency, the daemon answers immediately.  After that
the VM serves (one static compile, amortized by the worker-side cache).
Hotness is judged from two profile signals: the request count and the
cumulative VM step count (``VM.executed`` — the same counter PR 1's
PGO profiles aggregate).  A hot key triggers one background native
compile through the crash-isolated pool; until it lands the VM keeps
serving.  The VM tier runs instrumented, and each run's profile is
accumulated per key (:meth:`TieringManager.note_profile`, summed via
``Profile.merge``); the promotion job carries the accumulated profile,
so the native world the daemon tiers up to is specialized around the
hot paths the key's own requests exercised.  Any native failure — compiler error, build timeout, worker
crash while running the ``.so`` — quarantines the key back to the VM
permanently (PR 3's discipline: broken fast paths are dropped, not
retried in a loop).

The manager is event-loop-confined: the server calls it only from the
asyncio thread, so there is no locking.  :meth:`snapshot` feeds the
``stats`` op's per-tier counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field


#: Requests per key served by the graph interpreter before the VM
#: takes over.
INTERP_RUNS = 2
#: Cumulative VM steps after which a key is hot, if its request count
#: has not made it hot first.
HOT_STEPS = 100_000


@dataclass
class TieringPolicy:
    enabled: bool = True
    #: Requests per key after which the key is hot (native compile).
    hot_requests: int = 4


@dataclass
class _KeyState:
    requests: int = 0
    steps: int = 0
    #: None | "pending" | "ready" | "quarantined"
    native: str | None = None
    so_path: str | None = None
    entry_meta: dict | None = None
    quarantine_reason: str | None = None
    #: Accumulated VM-tier training data (serialized Profile), merged
    #: across requests; attached to the promotion job so the native
    #: compile is profile-guided.
    profile: dict | None = None
    #: Whether the ready ``.so`` was built with that profile.
    pgo: bool = False


@dataclass
class TierDecision:
    tier: str                     # "interp" | "vm" | "native"
    promote: bool                 # start a background native compile now
    so_path: str | None = None
    entry_meta: dict | None = None
    native_state: str = "none"


@dataclass
class TieringManager:
    policy: TieringPolicy = field(default_factory=TieringPolicy)

    def __post_init__(self) -> None:
        self._states: dict[str, _KeyState] = {}
        self.counters: dict[str, int] = {
            "run_requests": 0,
            "served_interp": 0,
            "served_vm": 0,
            "served_native": 0,
            "native_compiles": 0,
            "native_cache_hits": 0,
            "native_fallbacks": 0,
            "native_quarantined": 0,
            "profiles_noted": 0,
            "native_pgo_compiles": 0,
        }

    def _state(self, key: str) -> _KeyState:
        state = self._states.get(key)
        if state is None:
            state = self._states[key] = _KeyState()
        return state

    # -- the request path ----------------------------------------------

    def decide(self, key: str) -> TierDecision:
        """Pick the tier for one incoming request and count it."""
        state = self._state(key)
        state.requests += 1
        self.counters["run_requests"] += 1
        if state.native == "ready":
            self.counters["served_native"] += 1
            return TierDecision("native", False, so_path=state.so_path,
                                entry_meta=state.entry_meta,
                                native_state="ready")
        if state.requests <= INTERP_RUNS:
            tier = "interp"
            self.counters["served_interp"] += 1
        else:
            tier = "vm"
            self.counters["served_vm"] += 1
        promote = (self.policy.enabled
                   and state.native is None
                   and (state.requests >= self.policy.hot_requests
                        or state.steps >= HOT_STEPS))
        if promote:
            state.native = "pending"
        return TierDecision(tier, promote,
                            native_state=state.native or "none")

    def note_steps(self, key: str, steps: int) -> None:
        """Feed VM step counts into the hotness signal."""
        self._state(key).steps += int(steps)

    def note_profile(self, key: str, profile: dict | None) -> None:
        """Accumulate one VM-tier run's profile into the key's
        training data (summed site counts across requests)."""
        if not profile:
            return
        state = self._state(key)
        if state.profile is None:
            state.profile = profile
        else:
            from ..profile.model import Profile

            state.profile = Profile.from_dict(state.profile).merge(
                Profile.from_dict(profile)).to_dict()
        self.counters["profiles_noted"] += 1

    def profile_of(self, key: str) -> dict | None:
        state = self._states.get(key)
        return state.profile if state is not None else None

    # -- promotion outcomes --------------------------------------------

    def native_ready(self, key: str, so_path: str, entry_meta: dict,
                     cached: bool, pgo: bool = False) -> None:
        state = self._state(key)
        state.native = "ready"
        state.so_path = so_path
        state.entry_meta = entry_meta
        state.pgo = pgo
        self.counters["native_compiles"] += 1
        if cached:
            self.counters["native_cache_hits"] += 1
        if pgo:
            self.counters["native_pgo_compiles"] += 1

    def quarantine(self, key: str, reason: str) -> None:
        state = self._state(key)
        state.native = "quarantined"
        state.so_path = None
        state.entry_meta = None
        state.pgo = False
        state.quarantine_reason = reason
        self.counters["native_quarantined"] += 1

    def fallback(self, key: str, reason: str) -> None:
        """A native *execution* failed: quarantine and count the event."""
        self.counters["native_fallbacks"] += 1
        self.quarantine(key, reason)

    # -- introspection --------------------------------------------------

    def state_of(self, key: str) -> str:
        return self._states[key].native or "none" \
            if key in self._states else "none"

    def snapshot(self) -> dict:
        tally = {"none": 0, "pending": 0, "ready": 0, "quarantined": 0}
        for state in self._states.values():
            tally[state.native or "none"] += 1
        return {
            "enabled": self.policy.enabled,
            "keys": len(self._states),
            "native_states": tally,
            **self.counters,
        }
