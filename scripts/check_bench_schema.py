#!/usr/bin/env python3
"""Validate the committed BENCH_*.json performance snapshots.

scripts/bench_snapshot.sh writes them; this checker (stdlib only, run
from ctest as `bench_schema`) keeps them honest: every snapshot must
carry schema_version 1, the provenance block (machine, git_sha,
workload) and the per-snapshot payload the acceptance gates read —
for the engine snapshot that includes the `figures` block of end-to-end
wall times and peak RSS.  A
snapshot that drifts from the writer — a renamed key, a dropped table —
fails here instead of surfacing as a KeyError deep inside
bench_snapshot.sh months later.

Usage:
    check_bench_schema.py [BENCH_engine.json BENCH_router.json ...]
    check_bench_schema.py --diff OLD.json NEW.json

With no arguments, checks the repo-root snapshots relative to this
script.  --diff prints, per cell of two engine snapshots (ns_per_round,
router/wormhole cycle times, figure wall times), the after/before ratio
each snapshot measured against its own baseline build, so the machine of
either session cancels — warn-only (always exits 0): CI uses it to
surface perf drift in logs without holding PRs hostage to machine noise.
"""

import json
import os
import sys

SCHEMA_VERSION = 1


def fail(path, message):
    print(f"check_bench_schema: {path}: {message}", file=sys.stderr)
    return False


def check_common(path, snap):
    ok = True
    if snap.get("schema_version") != SCHEMA_VERSION:
        ok = fail(path, f"schema_version must be {SCHEMA_VERSION}, "
                        f"got {snap.get('schema_version')!r}")
    machine = snap.get("machine")
    if not isinstance(machine, dict):
        ok = fail(path, "missing machine block")
    else:
        for key in ("uname", "cpu", "cores"):
            if key not in machine:
                ok = fail(path, f"machine.{key} missing")
    for key in ("git_sha", "workload"):
        if not isinstance(snap.get(key), str) or not snap[key]:
            ok = fail(path, f"{key} missing or empty")
    return ok


def check_numeric_map(path, snap, key):
    cells = snap.get(key)
    if not isinstance(cells, dict) or not cells:
        return fail(path, f"{key} missing or empty")
    ok = True
    for cell, value in cells.items():
        if not isinstance(value, (int, float)):
            ok = fail(path, f"{key}[{cell}] is not a number")
    return ok


def check_numeric_table(path, snap, key, subkeys):
    ok = True
    table = snap.get(key)
    if not isinstance(table, dict):
        return fail(path, f"{key} missing")
    for sub in subkeys:
        cells = table.get(sub)
        if not isinstance(cells, dict) or not cells:
            ok = fail(path, f"{key}.{sub} missing or empty")
            continue
        for cell, value in cells.items():
            if not isinstance(value, (int, float)):
                ok = fail(path, f"{key}.{sub}[{cell}] is not a number")
    return ok


# Anchor cells and the keys each must carry.  The sparse wavefront reaches
# a few hundred of a million tiles, so it reports the tile count only: a
# coverage percentage would round to 0.0.  `wall_s` is the table's
# post-construction time; `process_wall_s` and `peak_rss_mb` are the
# whole process's, construction included.  A snapshot taken against a
# baseline build also carries a `before` block of the three timings per
# cell it could measure there.
SCALABILITY_CELLS = {
    "broadcast_256x256": ("mesh", "rounds", "tiles_reached",
                          "coverage_pct", "wall_s", "process_wall_s",
                          "peak_rss_mb"),
    "sparse_1000x1000": ("mesh", "rounds", "tiles_reached", "wall_s",
                         "process_wall_s", "peak_rss_mb"),
}
SCALABILITY_BEFORE = ("wall_s", "process_wall_s", "peak_rss_mb")


def check_engine(path, snap):
    ok = check_common(path, snap)
    ok &= check_numeric_map(path, snap, "ns_per_round")
    if "ns_per_round_before" in snap:
        ok &= check_numeric_map(path, snap, "ns_per_round_before")
    ok &= check_numeric_table(path, snap, "gossip_round_ns",
                              ("detached", "null_sink", "recorded"))
    ok &= check_numeric_map(path, snap, "router_cycle_ns")
    if "router_cycle_ns_before" in snap:
        ok &= check_numeric_map(path, snap, "router_cycle_ns_before")
    # Optional: snapshots older than BM_WormholeStep have no wormhole cells.
    for key in ("wormhole_cycle_ns", "wormhole_cycle_ns_before"):
        if key in snap:
            ok &= check_numeric_map(path, snap, key)
    overhead = snap.get("flight_recorder_overhead")
    if not isinstance(overhead, dict) or not overhead:
        ok = fail(path, "flight_recorder_overhead missing or empty")
    scal = snap.get("scalability")
    if not isinstance(scal, dict):
        ok = fail(path, "scalability missing")
    else:
        for cell, keys in SCALABILITY_CELLS.items():
            row = scal.get(cell)
            if not isinstance(row, dict):
                ok = fail(path, f"scalability.{cell} missing")
                continue
            for key in keys:
                if key not in row:
                    ok = fail(path, f"scalability.{cell}.{key} missing")
            before = row.get("before")
            if before is None:
                continue
            if not isinstance(before, dict):
                ok = fail(path, f"scalability.{cell}.before is not an object")
                continue
            for key in SCALABILITY_BEFORE:
                if not isinstance(before.get(key), (int, float)):
                    ok = fail(path, f"scalability.{cell}.before.{key} "
                                    f"missing or not a number")
    ok &= check_figures(path, snap.get("figures"))
    return ok


FIGURE_CELLS = ("fig4_8_mp3_latency", "fig4_5_fault_surface",
                "ablation_fec_vs_crc", "dense_128x128_broadcast")


def check_figures(path, figures):
    """The end-to-end timings block: per cell, `after` (and, when the
    snapshot was taken against a baseline build, `before`) wall seconds
    and peak RSS, plus the machine they were measured on."""
    if not isinstance(figures, dict):
        return fail(path, "figures missing")
    ok = True
    machine = figures.get("machine")
    if not isinstance(machine, dict) or \
            not isinstance(machine.get("cores"), int):
        ok = fail(path, "figures.machine.cores missing")
    benches = figures.get("benches")
    if not isinstance(benches, dict):
        return fail(path, "figures.benches missing")
    for cell in FIGURE_CELLS:
        row = benches.get(cell)
        if not isinstance(row, dict):
            ok = fail(path, f"figures.benches.{cell} missing")
            continue
        if "after" not in row:
            ok = fail(path, f"figures.benches.{cell}.after missing")
        for side in ("after", "before"):
            if side not in row:
                continue
            for key in ("wall_s", "peak_rss_mb"):
                if not isinstance(row[side].get(key), (int, float)):
                    ok = fail(path, f"figures.benches.{cell}.{side}.{key} "
                                    f"missing or not a number")
    return ok


def check_router(path, snap):
    ok = check_common(path, snap)
    rows = snap.get("rows")
    if not isinstance(rows, list) or not rows:
        return fail(path, "rows missing or empty")
    for i, row in enumerate(rows):
        for key in ("backend", "faults"):
            if key not in row:
                ok = fail(path, f"rows[{i}].{key} missing")
    return ok


CHECKERS = {
    "BENCH_engine.json": check_engine,
    "BENCH_router.json": check_router,
}


def check_file(path):
    try:
        with open(path) as f:
            snap = json.load(f)
    except OSError as e:
        return fail(path, f"unreadable: {e}")
    except json.JSONDecodeError as e:
        return fail(path, f"not valid JSON: {e}")
    checker = CHECKERS.get(os.path.basename(path), check_common)
    return checker(path, snap)


def ratio_cells(snap):
    """Each cell's after/before ratio within one snapshot: both sides ran
    in the same session, so the ratio cancels the machine.  Cells without
    a `before` side have no ratio."""
    cells = {}
    for key in ("ns_per_round", "router_cycle_ns", "wormhole_cycle_ns"):
        after = snap.get(key, {})
        before = snap.get(key + "_before", {})
        for cell in sorted(set(after) & set(before)):
            if before[cell]:
                cells[f"{key} {cell}"] = after[cell] / before[cell]
    for cell, row in sorted(snap.get("figures", {}).get("benches", {}).items()):
        before = row.get("before", {}).get("wall_s")
        after = row.get("after", {}).get("wall_s")
        if before and after is not None:
            cells[f"figures {cell}"] = after / before
    return cells


def diff_engine(old_path, new_path):
    """Warn-only comparison of each cell's after/before ratio in OLD and
    NEW.  The raw `after` numbers of two snapshots come from different
    sessions (a slower machine shifts every cell), so only ratios are
    compared; NEW's ratio is flagged when its change is >10% slower than
    the baseline it was measured against."""
    with open(old_path) as f:
        old = ratio_cells(json.load(f))
    with open(new_path) as f:
        new = ratio_cells(json.load(f))
    for cell in sorted(new):
        marker = "  <-- regression?" if new[cell] > 1.10 else ""
        was = f"{old[cell]:.3f}" if cell in old else "n/a"
        print(f"{cell}: after/before {was} -> {new[cell]:.3f}{marker}")
    print("check_bench_schema: diff is informational only (run-to-run noise "
          "stays in the ratios); not failing the build on it")
    return True


def main(argv):
    if len(argv) >= 1 and argv[0] == "--diff":
        if len(argv) != 3:
            print("usage: check_bench_schema.py --diff OLD.json NEW.json",
                  file=sys.stderr)
            return 2
        diff_engine(argv[1], argv[2])
        return 0

    paths = argv
    if not paths:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        paths = [os.path.join(root, name) for name in sorted(CHECKERS)]
    ok = True
    for path in paths:
        ok &= check_file(path)
    if ok:
        print(f"check_bench_schema: {len(paths)} snapshot(s) ok")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
