#!/usr/bin/env python3
"""Compare a fresh bench run with the committed BENCH_results.json.

usage: python3 bench/fingerprints.py COMMITTED FRESH

    dune exec bench/main.exe -- --json-out /tmp/bench.json
    python3 bench/fingerprints.py BENCH_results.json /tmp/bench.json

Every number the bench simulates is deterministic, so every table cell
and every recorded key of a fresh run must equal the committed file's.
The only values skipped are the ones measured on the host (HOST_* below).
Prints each difference and exits 1 if there is any.

A change that moves a simulated number regenerates the committed file
(`dune exec bench/main.exe`, which writes ./BENCH_results.json) and
says in CHANGES.md which numbers moved and why.
"""
import json
import sys

# Keys measured on the host: in every group, and in single groups.
HOST_KEYS = {"wall_seconds"}
HOST_GROUP_KEYS = {"C25": {"reference_cps", "fast_cps", "speedup"}}
# Table rows measured on the host, by their first cell.
HOST_ROWS = {"C2": {"OCaml effects fiber (measured on host)"}}
# Table columns measured on the host, by header.
HOST_COLUMNS = {"C25": {"wall s", "Mcyc/s", "vs reference"}, "C26": {"ns/call"}}


def table_diffs(group, k, want, got):
    where = f"{group} table {k}"
    for field in ("title", "note", "header"):
        if want.get(field) != got.get(field):
            yield f"{where} {field}: committed {want.get(field)!r}, fresh {got.get(field)!r}"
    header = want.get("header", [])
    wrows, grows = want.get("rows", []), got.get("rows", [])
    if len(wrows) != len(grows):
        yield f"{where}: committed {len(wrows)} rows, fresh {len(grows)}"
    for wrow, grow in zip(wrows, grows):
        if wrow and wrow[0] in HOST_ROWS.get(group, ()):
            continue
        if len(wrow) != len(grow):
            yield f"{where} row {wrow[:1]}: committed {wrow}, fresh {grow}"
            continue
        for j, (w, g) in enumerate(zip(wrow, grow)):
            col = header[j] if j < len(header) else str(j)
            if col not in HOST_COLUMNS.get(group, ()) and w != g:
                yield f"{where} row {wrow[0]!r} column {col!r}: committed {w}, fresh {g}"


def group_diffs(group, want, got):
    skip = HOST_KEYS | HOST_GROUP_KEYS.get(group, set())
    for key in sorted((set(want) | set(got)) - skip):
        if key not in want or key not in got:
            yield f"{group}.{key}: only in {'fresh' if key in got else 'committed'}"
        elif key == "tables":
            wt, gt = want[key], got[key]
            if len(wt) != len(gt):
                yield f"{group}: committed {len(wt)} tables, fresh {len(gt)}"
            for k, (w, g) in enumerate(zip(wt, gt)):
                yield from table_diffs(group, k, w, g)
        elif want[key] != got[key]:
            yield f"{group}.{key}: committed {want[key]!r}, fresh {got[key]!r}"


def diffs(committed, fresh):
    for key in sorted((set(committed) | set(fresh)) - {"groups"}):
        if committed.get(key) != fresh.get(key):
            yield f"{key}: committed {committed.get(key)!r}, fresh {fresh.get(key)!r}"
    wg, gg = committed.get("groups", {}), fresh.get("groups", {})
    for group in sorted(set(wg) | set(gg)):
        if group not in wg or group not in gg:
            yield f"group {group}: only in {'fresh' if group in gg else 'committed'}"
        else:
            yield from group_diffs(group, wg[group], gg[group])


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__.strip().splitlines()[2])
    with open(argv[1]) as f:
        committed = json.load(f)
    with open(argv[2]) as f:
        fresh = json.load(f)
    found = list(diffs(committed, fresh))
    for d in found:
        print(d)
    groups = len(fresh.get("groups", {}))
    print(f"{len(found)} difference(s) across {groups} bench groups")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
