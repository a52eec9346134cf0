#!/usr/bin/env python3
"""Structural validator for aar observability JSON (docs/OBSERVABILITY.md).

Validates `aar.metrics.v1` (aar_sim --metrics output) and `aar.bench.v1`
(out/BENCH_<id>.json perf records), detected from the top-level "schema"
key.  Stdlib only; exits nonzero on the first file that fails, so CI can
use it as a drift tripwire for the documented schemas.

Usage: validate_metrics.py FILE [FILE ...]
"""

import json
import re
import sys


class SchemaError(Exception):
    pass


def fail(path, msg):
    raise SchemaError(f"{path}: {msg}")


def check_number(value, path, *, integer=False, allow_null=False):
    if allow_null and value is None:  # non-finite doubles serialize as null
        return
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        fail(path, f"expected a number, got {type(value).__name__}")
    if integer and not isinstance(value, int):
        fail(path, f"expected an integer, got {value!r}")


def check_str_map(obj, path, value_check):
    if not isinstance(obj, dict):
        fail(path, f"expected an object, got {type(obj).__name__}")
    for name, value in obj.items():
        if not isinstance(name, str) or not name:
            fail(path, f"non-string or empty metric name: {name!r}")
        value_check(value, f"{path}.{name}")


def check_keys(obj, path, required):
    if not isinstance(obj, dict):
        fail(path, f"expected an object, got {type(obj).__name__}")
    missing = sorted(set(required) - set(obj))
    if missing:
        fail(path, f"missing keys: {', '.join(missing)}")
    extra = sorted(set(obj) - set(required))
    if extra:
        fail(path, f"undocumented keys: {', '.join(extra)}")


def check_gauge(value, path):
    check_keys(value, path, ["value", "max"])
    check_number(value["value"], f"{path}.value", allow_null=True)
    check_number(value["max"], f"{path}.max", allow_null=True)


def check_timer(value, path):
    check_keys(value, path, ["count", "total_ns", "min_ns", "max_ns"])
    for key in ("count", "total_ns", "min_ns", "max_ns"):
        check_number(value[key], f"{path}.{key}", integer=True)
    if value["count"] == 0 and value["total_ns"] != 0:
        fail(path, "zero-count timer with nonzero total_ns")


def check_histogram(value, path):
    check_keys(value, path, ["lo", "hi", "bins", "total", "dropped", "counts"])
    check_number(value["lo"], f"{path}.lo")
    check_number(value["hi"], f"{path}.hi")
    for key in ("bins", "total", "dropped"):
        check_number(value[key], f"{path}.{key}", integer=True)
    if not isinstance(value["counts"], list):
        fail(f"{path}.counts", "expected an array")
    if len(value["counts"]) != value["bins"]:
        fail(f"{path}.counts",
             f"length {len(value['counts'])} != bins {value['bins']}")
    for i, c in enumerate(value["counts"]):
        check_number(c, f"{path}.counts[{i}]", integer=True)
    if sum(value["counts"]) != value["total"]:
        fail(f"{path}.counts", "bin counts do not sum to total")


def check_series(value, path):
    if not isinstance(value, list):
        fail(path, "expected an array")
    for i, v in enumerate(value):
        check_number(v, f"{path}[{i}]", allow_null=True)


# The sim.engine.* family (docs/SIMULATION.md) is a closed set: the engine
# emits exactly these names, so anything else under the prefix is drift —
# a typo'd counter or an undocumented addition.
SIM_ENGINE_COUNTERS = {
    "sim.engine.searches",
    "sim.engine.rounds",
    "sim.engine.events",
    "sim.engine.churned",
}
SIM_ENGINE_TIMERS = {"sim.engine.build", "sim.engine.route", "sim.engine.apply"}

# The node.* family (docs/NODE.md) is likewise closed: aar_node's daemon
# emits exactly these names from its stats delta-sync.
NODE_COUNTERS = {
    "node.accepted",
    "node.disconnects",
    "node.bytes_in",
    "node.bytes_out",
    "node.messages_in",
    "node.malformed_frames",
    "node.queries_in",
    "node.hits_in",
    "node.pings_in",
    "node.dropped",
    "node.queries_relayed",
    "node.hits_relayed",
    "node.rule_routed",
    "node.flooded",
    "node.routed_hits",
    "node.pairs_mined",
    "node.snapshots",
    "node.send_retries",
    "node.send_timeouts",
    "node.degraded_floods",
    "node.admin_requests",
    "node.peer.handshakes",
    "node.peer.pongs",
    "node.peer.missed",
    "node.peer.reconnects",
    "node.restored_pairs",
    "node.checkpoints",
}
NODE_GAUGES = {"node.connections", "node.rules"}
NODE_TIMERS = {"node.process", "node.peer.rtt"}

# The lsm.* family (docs/STORAGE.md, docs/OBSERVABILITY.md) is a closed
# set: the tiered store registers exactly these names lazily, so a run
# that never opens a store emits none of them.
LSM_COUNTERS = {
    "lsm.flushes",
    "lsm.compactions",
    "lsm.lookups",
    "lsm.bloom_skips",
}
LSM_GAUGES = {"lsm.runs", "lsm.memtable_bytes", "lsm.entries_on_disk"}
LSM_TIMERS = {"lsm.flush", "lsm.compaction"}

# The mining.* family (docs/OBSERVABILITY.md): incremental miner
# maintenance.
MINING_COUNTERS = {"mining.evictions"}
MINING_GAUGES = {"mining.antecedents"}
MINING_TIMERS = {"mining.snapshot"}

# Per-shard family (sharded daemon, ISSUE 8): node.shard.<i>.<leaf> with a
# closed leaf set.  <i> is the shard index (0-based, daemon --threads).
NODE_SHARD_COUNTER_RE = re.compile(
    r"^node\.shard\.\d+\.(messages_in|bytes_in|bytes_out|relayed_in|"
    r"relay_expired|pairs_mined)$")
NODE_SHARD_GAUGE_RE = re.compile(r"^node\.shard\.\d+\.connections$")


def check_sim_engine_family(doc, path):
    for name in doc["counters"]:
        if name.startswith("sim.engine.") and name not in SIM_ENGINE_COUNTERS:
            fail(f"{path}.counters.{name}",
                 "undocumented sim.engine.* counter (docs/SIMULATION.md)")
    for name in doc["timers"]:
        if name.startswith("sim.engine.") and name not in SIM_ENGINE_TIMERS:
            fail(f"{path}.timers.{name}",
                 "undocumented sim.engine.* timer (docs/SIMULATION.md)")


def check_node_family(doc, path):
    for name in doc["counters"]:
        if name.startswith("node.shard."):
            if not NODE_SHARD_COUNTER_RE.match(name):
                fail(f"{path}.counters.{name}",
                     "undocumented node.shard.* counter (docs/NODE.md)")
        elif name.startswith("node.") and name not in NODE_COUNTERS:
            fail(f"{path}.counters.{name}",
                 "undocumented node.* counter (docs/NODE.md)")
    for name in doc["gauges"]:
        if name.startswith("node.shard."):
            if not NODE_SHARD_GAUGE_RE.match(name):
                fail(f"{path}.gauges.{name}",
                     "undocumented node.shard.* gauge (docs/NODE.md)")
        elif name.startswith("node.") and name not in NODE_GAUGES:
            fail(f"{path}.gauges.{name}",
                 "undocumented node.* gauge (docs/NODE.md)")
    for name in doc["timers"]:
        if name.startswith("node.") and name not in NODE_TIMERS:
            fail(f"{path}.timers.{name}",
                 "undocumented node.* timer (docs/NODE.md)")


def check_closed_family(doc, path, prefix, counters, gauges, timers, doc_ref):
    for name in doc["counters"]:
        if name.startswith(prefix) and name not in counters:
            fail(f"{path}.counters.{name}",
                 f"undocumented {prefix}* counter ({doc_ref})")
    for name in doc["gauges"]:
        if name.startswith(prefix) and name not in gauges:
            fail(f"{path}.gauges.{name}",
                 f"undocumented {prefix}* gauge ({doc_ref})")
    for name in doc["timers"]:
        if name.startswith(prefix) and name not in timers:
            fail(f"{path}.timers.{name}",
                 f"undocumented {prefix}* timer ({doc_ref})")


def check_metrics(doc, path):
    check_keys(doc, path,
               ["schema", "counters", "gauges", "timers", "histograms",
                "series"])
    if doc["schema"] != "aar.metrics.v1":
        fail(f"{path}.schema", f"expected aar.metrics.v1, got {doc['schema']!r}")
    check_str_map(doc["counters"], f"{path}.counters",
                  lambda v, p: check_number(v, p, integer=True))
    check_str_map(doc["gauges"], f"{path}.gauges", check_gauge)
    check_str_map(doc["timers"], f"{path}.timers", check_timer)
    check_str_map(doc["histograms"], f"{path}.histograms", check_histogram)
    check_str_map(doc["series"], f"{path}.series", check_series)
    check_sim_engine_family(doc, path)
    check_node_family(doc, path)
    check_closed_family(doc, path, "lsm.", LSM_COUNTERS, LSM_GAUGES,
                        LSM_TIMERS, "docs/STORAGE.md")
    check_closed_family(doc, path, "mining.", MINING_COUNTERS, MINING_GAUGES,
                        MINING_TIMERS, "docs/OBSERVABILITY.md")


def check_bench(doc, path):
    check_keys(doc, path,
               ["schema", "id", "status", "wall_seconds", "pairs",
                "pairs_per_sec", "extra", "metrics"])
    if doc["schema"] != "aar.bench.v1":
        fail(f"{path}.schema", f"expected aar.bench.v1, got {doc['schema']!r}")
    if not isinstance(doc["id"], str) or not doc["id"]:
        fail(f"{path}.id", f"expected a nonempty string, got {doc['id']!r}")
    check_number(doc["status"], f"{path}.status", integer=True)
    check_number(doc["wall_seconds"], f"{path}.wall_seconds")
    check_number(doc["pairs"], f"{path}.pairs")
    check_number(doc["pairs_per_sec"], f"{path}.pairs_per_sec")
    check_str_map(doc["extra"], f"{path}.extra",
                  lambda v, p: check_number(v, p, allow_null=True))
    check_metrics(doc["metrics"], f"{path}.metrics")
    if doc["id"] == "n7_scale":
        # The scale bench drives the sharded engine with metrics on, so its
        # record must carry the sim.engine.* family with real activity.
        counters = doc["metrics"]["counters"]
        missing = sorted(SIM_ENGINE_COUNTERS - set(counters))
        if missing:
            fail(f"{path}.metrics.counters",
                 f"n7_scale record lacks sim.engine.* counters: "
                 f"{', '.join(missing)}")
        if counters["sim.engine.searches"] <= 0:
            fail(f"{path}.metrics.counters.sim.engine.searches",
                 "n7_scale ran no engine searches")
    if doc["id"] == "p4_lsm":
        # The lsm bench ingests far past its memtable budget, so its record
        # must show real tiered-store activity: flushes, compactions, and
        # lookups that consulted the bloom filters.
        counters = doc["metrics"]["counters"]
        for name in ("lsm.flushes", "lsm.compactions", "lsm.lookups",
                     "lsm.bloom_skips"):
            if counters.get(name, 0) <= 0:
                fail(f"{path}.metrics.counters.{name}",
                     "p4_lsm record shows no tiered-store activity")
        for name in ("ingest_deltas_per_sec", "lookup_per_sec",
                     "disk_over_memtable"):
            if name not in doc["extra"]:
                fail(f"{path}.extra.{name}",
                     "p4_lsm record lacks the out-of-core extras")
    if doc["id"] == "n8_node":
        # The node bench drives a live daemon over loopback sockets; its
        # record must show traffic that was relayed and rule-routed hits.
        counters = doc["metrics"]["counters"]
        for name in ("node.messages_in", "node.queries_relayed",
                     "node.routed_hits"):
            if counters.get(name, 0) <= 0:
                fail(f"{path}.metrics.counters.{name}",
                     "n8_node record shows no daemon activity")
        # The shard sweep (ISSUE 8) must record per-thread-count throughput
        # and tail latency plus the 4-shard speedup.
        for name in ("threads1_fps", "threads1_p99_ms", "threads4_fps",
                     "threads4_p99_ms", "speedup_4t", "hardware_threads"):
            if name not in doc["extra"]:
                fail(f"{path}.extra.{name}",
                     "n8_node record lacks the shard-sweep extras")


def validate_file(filename):
    with open(filename, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict) or "schema" not in doc:
        fail(filename, "top level must be an object with a 'schema' key")
    schema = doc["schema"]
    if schema == "aar.metrics.v1":
        check_metrics(doc, filename)
    elif schema == "aar.bench.v1":
        check_bench(doc, filename)
    else:
        fail(filename, f"unknown schema {schema!r}")
    return schema


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for filename in argv[1:]:
        try:
            schema = validate_file(filename)
        except (SchemaError, json.JSONDecodeError, OSError) as err:
            print(f"FAIL {filename}: {err}", file=sys.stderr)
            return 1
        print(f"ok   {filename} ({schema})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
