#!/usr/bin/env python3
"""Checks the smoke records of `tools/check.sh --bench-smoke`.

Every smoke bench writes one record (bench/record.h):

    {"bench": NAME, "hardware_threads": H, "values": {KEY: NUMBER, ...}}

BOUNDS lists every bound once. A bound names the record it reads, derives
one number from the record's values, and compares it with its core
threshold on boxes with >= CORE_MIN_HW hardware threads. On smaller boxes a
scaling bound is physically unreachable: its core threshold is SKIPPED
(loudly) and its relaxed floor applies instead, so the machinery must still
not tax a serial box. A bound without a relaxed floor applies on every box.
Where the relaxed floor reads a different number than the core threshold,
`relaxed_value` derives it.

usage: bench_smoke_check.py RECORD.json...
"""
import collections
import json
import operator
import sys

CORE_MIN_HW = 4
# Generous upper bound on operator invocations per query; the scan-filter
# plan actually executes three operators (Scan, Filter, Project) once each.
OPS_PER_QUERY = 16

Bound = collections.namedtuple(
    "Bound", "record name value op core relaxed relaxed_value",
    defaults=(None, None))

OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
       ">=": operator.ge}


def wal(x, writers):
    return x[f"BM_WalCommit/sync:2/real_time/threads:{writers}"
             ".items_per_second"]


def parallel(x, curve):
    return (x[f"parallel.{curve}.threads_8"]
            / x[f"parallel.{curve}.threads_1"])


BOUNDS = [
    # DESIGN.md §8: instrumentation with no sink costs < 2% of a query.
    Bound("micro", "disabled-span overhead, share of BM_ScanFilter/250",
          lambda x: OPS_PER_QUERY * x["BM_ObsSpanDisabled.real_ns"]
          / x["BM_ScanFilter/250.real_ns"], "<", 0.02),
    # DESIGN.md §9: group commit at 8 fsync writers vs one.
    Bound("micro", "group commit, 8 writers vs 1",
          lambda x: wal(x, 8) / wal(x, 1), ">=", 3.0),
    # DESIGN.md §11: cancel-to-return and deadline overshoot, 1 and 8
    # threads, worst of the four.
    Bound("micro", "governance latency ms, worst",
          lambda x: max(v for k, v in x.items()
                        if k.startswith("governance.")), "<=", 100.0),
    # DESIGN.md §10: the scan and the better of join/agg at 8 threads vs 1;
    # the relaxed floor holds every operator.
    Bound("micro", "parallel speedup at 8 threads",
          lambda x: min(parallel(x, "scan"),
                        max(parallel(x, "hash_join"), parallel(x, "agg"))),
          ">=", 2.5, 0.7,
          lambda x: min(parallel(x, curve)
                        for curve in ("scan", "hash_join", "agg"))),
    # DESIGN.md §12: inter-query parallelism, read-only QPS 8 vs 1 clients.
    Bound("concurrent", "read-only QPS, 8 clients vs 1",
          lambda x: x["read_qps_clients_8"] / x["read_qps_clients_1"],
          ">=", 3.0, 0.7),
    Bound("concurrent", "mixed workload, slower of reads/s and writes/s",
          lambda x: min(x["mixed_reads_per_sec"],
                        x["mixed_writes_per_sec"]), ">", 0.0),
    # DESIGN.md §13: EXECUTE through the plan cache vs re-sent literal SQL.
    Bound("prepared", "EXECUTE vs literal-SQL QPS",
          lambda x: x["execute_qps"] / x["literal_qps"], ">=", 2.0, 0.9),
    # DESIGN.md §14: failover, and hot-standby reads vs the primary's.
    Bound("repl", "failover ms", lambda x: x["failover_ms"],
          "<=", 2000.0, 10000.0),
    Bound("repl", "standby vs primary read QPS",
          lambda x: x["standby_read_qps"] / x["primary_read_qps"],
          ">=", 0.8, 0.5),
]


def check(bound, record):
    hw = record["hardware_threads"]
    values = record["values"]
    strict = bound.relaxed is None or hw >= CORE_MIN_HW
    derive = bound.value if strict else (bound.relaxed_value or bound.value)
    limit = bound.core if strict else bound.relaxed
    try:
        value = derive(values)
    except (KeyError, ZeroDivisionError, ValueError) as err:
        return f"{bound.record}: {bound.name}: cannot derive ({err!r})"
    if not strict:
        print(f"bench_smoke_check: SKIPPING {bound.name} {bound.op}"
              f" {bound.core}: only {hw} hardware thread(s)"
              f" (needs >= {CORE_MIN_HW}); relaxed floor applies")
    ok = OPS[bound.op](value, limit)
    print(f"bench_smoke_check: {bound.record}: {bound.name} = {value:.4g}"
          f" (need {bound.op} {limit:g}) {'ok' if ok else 'FAIL'}")
    return None if ok else f"{bound.record}: {bound.name} = {value:.4g}" \
        f" violates {bound.op} {limit:g}"


def main():
    if len(sys.argv) < 2:
        raise SystemExit(__doc__.strip().splitlines()[-1])
    records = {}
    for path in sys.argv[1:]:
        with open(path) as f:
            record = json.load(f)
        records[record["bench"]] = record
    failures = []
    for bound in BOUNDS:
        if bound.record not in records:
            failures.append(f"{bound.record}: record missing")
            continue
        failure = check(bound, records[bound.record])
        if failure:
            failures.append(failure)
    for failure in failures:
        print(f"bench_smoke_check: {failure}", file=sys.stderr)
    if failures:
        raise SystemExit(1)
    print("bench_smoke_check: ok")


if __name__ == "__main__":
    main()
