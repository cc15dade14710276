"""Per-layer attribution, measured from outside the program.

Two sources, neither of which touches ``src/``:

* a ``cProfile`` profile of the traced ``run()``, folded into the layers
  named after the modules (:data:`LAYERS`) — self time, share of the
  profiled wall, and calls entering the layer from another layer;
* the counters ``HopeSystem.stats()`` already keeps, renamed per layer
  and turned into per-commit ratios (:func:`counters`).

Self time spent in code outside ``repro`` (stdlib, builtins: json, hmac,
fsync, deepcopy, heapq, ...) is charged to the nearest ``repro`` caller's
layer.  cProfile records, for every caller -> callee edge, the callee's
self time on behalf of that caller, so the charge is exact for a direct
call; below that (stdlib calling stdlib) a function's time is split over
its callers in proportion to the cumulative time of each edge.

This module imports nothing from ``repro``: the generator process uses it
too and must stay light.
"""

from __future__ import annotations

import os

#: Layer -> the ``repro`` modules it covers (prefix match on dotted names).
LAYERS = {
    "sim.kernel": ("sim.kernel",),
    "sim.process": ("sim.process",),
    "sim.channel": ("sim.channel", "sim.latency"),
    "sim.faults": ("sim.faults",),
    "core.machine": ("core.machine", "core.history", "core.interval", "core.aid", "core.events"),
    "core.depset": ("core.depset",),
    "core.fossil": ("core.fossil",),
    # backend and aid_task hold the run() wrapper and the registry control
    # plane every resolution goes through: engine dispatch by another name
    "runtime.engine": (
        "runtime.engine", "runtime.api", "runtime.effects", "runtime.messages",
        "runtime.backend", "runtime.aid_task",
    ),
    "runtime.replay": ("runtime.replay",),
    "runtime.resilience": ("runtime.resilience", "sim.failure"),
    "durable": ("durable",),
    "observers": ("sim.timeline", "sim.trace", "sim.random", "obs"),
    "workload": ("apps",),
    "other": (),
}

_HERE = os.path.dirname(os.path.abspath(__file__))
_MARK = os.sep + "repro" + os.sep


def layer_of(filename: str):
    """The layer a source file belongs to, or None for foreign code."""
    if filename.startswith(_HERE):
        return "workload"
    at = filename.rfind(_MARK)
    if at < 0:
        return None
    module = filename[at + len(_MARK):].rsplit(".", 1)[0].replace(os.sep, ".")
    for layer, prefixes in LAYERS.items():
        for prefix in prefixes:
            if module == prefix or module.startswith(prefix + "."):
                return layer
    return "other"


def _foreign_weights(stats: dict, own: dict) -> dict:
    """For every foreign function, the share of each layer in the time
    spent under it: its callers' layers weighted by edge cumulative time,
    followed through foreign callers to a fixed point."""
    foreign = [f for f in stats if own[f] is None]
    weights = {f: {} for f in foreign}
    for _ in range(8):                              # stdlib call chains are short
        for f in foreign:
            mix: dict = {}
            for caller, (_nc, _cc, _tt, ct) in stats[f][4].items():
                layer = own.get(caller)
                shares = {layer: 1.0} if layer else weights.get(caller) or {"other": 1.0}
                for name, share in shares.items():
                    mix[name] = mix.get(name, 0.0) + ct * share
            total = sum(mix.values())
            weights[f] = {k: v / total for k, v in mix.items()} if total > 0 else {"other": 1.0}
    return weights


def attribute(stats: dict, wall_s: float) -> dict:
    """Fold the ``pstats.Stats(profile).stats`` of ``run()`` into per-layer rows.

    Returns ``{layer: {"self_s", "share", "calls", "top"}}``; shares are
    of ``wall_s`` (the traced wall), and what the profile cannot place —
    including the profiler's own unaccounted time — lands in ``other``.
    """
    own = {func: layer_of(func[0]) for func in stats}
    weights = _foreign_weights(stats, own)
    rows = {layer: {"self_s": 0.0, "calls": 0, "top": {}} for layer in LAYERS}

    def charge(layer, seconds, func):
        row = rows[layer]
        row["self_s"] += seconds
        label = f"{os.path.basename(func[0])}:{func[2]}" if func[0] != "~" else func[2]
        row["top"][label] = row["top"].get(label, 0.0) + seconds

    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        layer = own[func]
        if layer is not None:
            charge(layer, tt, func)
            for caller, (nc, _c, _t, _ct2) in callers.items():
                origin = own[caller] or max(weights[caller].items(), key=lambda kv: kv[1])[0]
                if origin != layer:
                    rows[layer]["calls"] += nc
            continue
        if not callers:
            charge("other", tt, func)
        for caller, (_nc, _c, edge_tt, _ct2) in callers.items():
            target = own[caller]
            for name, share in ({target: 1.0} if target else weights[caller]).items():
                charge(name, edge_tt * share, func)

    placed = sum(row["self_s"] for row in rows.values())
    rows["other"]["self_s"] += max(0.0, wall_s - placed)
    for row in rows.values():
        row["share"] = row["self_s"] / wall_s
        row["top"] = [
            {"function": name, "self_s": seconds}
            for name, seconds in sorted(row["top"].items(), key=lambda kv: -kv[1])[:5]
        ]
    return rows


def function_cost(stats: dict, filename: str, name: str) -> tuple:
    """(calls, self seconds) of one profiled function: ``filename`` is the
    end of its path, ``"~"`` for a builtin such as ``posix.fsync``."""
    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        if func[0].endswith(filename) and name in func[2]:
            return nc, tt
    return 0, 0.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def counters(stats: dict, ops: int, wall_s: float) -> dict:
    """Layer counters from ``stats()``; every name appears on every
    workload, 0 where the layer is idle."""
    faults = stats.get("faults", {})
    reliable = stats.get("reliable", {})
    durable = stats.get("durable", {})
    resolves = stats["resolve_cache_hits"] + stats["resolve_cache_misses"]
    interns = stats["depset_hits"] + stats["depset_misses"]
    messages = stats["messages_sent"]
    return {
        "sim.kernel.events": stats["sim_events"],
        "sim.kernel.events_per_commit": _ratio(stats["sim_events"], ops),
        "sim.kernel.events_per_s": _ratio(stats["sim_events"], wall_s),
        "sim.kernel.heap_compactions": stats["heap_compactions"],
        "sim.channel.messages": messages,
        "sim.channel.tags": stats["tags_attached"],
        "sim.channel.msgs_per_commit": _ratio(messages, ops),
        "sim.faults.dropped": faults.get("dropped", 0),
        "sim.faults.duplicated": faults.get("duplicated", 0),
        "sim.faults.reordered": faults.get("reordered", 0),
        "runtime.resilience.sent": reliable.get("sent", 0),
        "runtime.resilience.retries": reliable.get("retries", 0),
        "runtime.resilience.acked": reliable.get("acked", 0),
        "runtime.resilience.dup_suppressed": reliable.get("dup_suppressed", 0),
        "runtime.resilience.exhausted": reliable.get("exhausted", 0),
        "runtime.resilience.retries_per_msg": _ratio(
            reliable.get("retries", 0), reliable.get("sent", 0)
        ),
        **machine_counts(stats),
        "core.machine.rollbacks_per_commit": _ratio(stats["rollbacks"], ops),
        "core.machine.resolve_cache_hit_rate": _ratio(stats["resolve_cache_hits"], resolves),
        "core.depset.hit_rate": _ratio(stats["depset_hits"], interns),
        "core.fossil.collections": stats["fossil_collections"],
        "core.fossil.history_dropped": stats["fossil_history_dropped"],
        "core.fossil.aids_retired": stats["fossil_aids_retired"],
        "core.fossil.log_dropped": stats["fossil_log_dropped"],
        "runtime.replay.restarts": stats["restarts"],
        "runtime.replay.replayed_effects": stats["replayed_effects"],
        "runtime.replay.replayed_per_restart": _ratio(
            stats["replayed_effects"], stats["restarts"]
        ),
        "runtime.replay.replayed_per_commit": _ratio(stats["replayed_effects"], ops),
        "durable.wal_records": durable.get("wal_records", 0),
        "durable.wal_bytes": durable.get("wal_bytes", 0),
        "durable.wal_batches": durable.get("wal_batches", 0),
        "durable.snapshots": durable.get("snapshots_written", 0),
    }


_MACHINE = (
    "guesses", "implicit_guesses", "affirms", "denies", "finalizes",
    "rollbacks", "intervals_discarded",
)


def machine_counts(stats: dict) -> dict:
    """The ``core.machine.*`` counts that go into ``sim_fingerprint``."""
    return {f"core.machine.{key}": stats[key] for key in _MACHINE}
