#!/usr/bin/env bash
# Engine performance snapshot: runs the sparse-broadcast microbenchmark
# (ns/round per mesh side), the router-core cycle microbenchmark
# (ns/cycle, adaptive and store-and-forward), the saturated wormhole
# cycle microbenchmark (ns/cycle, fault-free and with the centre router
# dead) and the two scalability
# anchor cells (256x256 full broadcast; 1000x1000 sparse wavefront), then
# writes BENCH_engine.json — machine info, git SHA, the ns/round and
# ns/cycle series (the median of 5 runs per side, the side that runs
# first alternating per pair), the flight-recorder overhead (a recorded
# gossip round over one with a no-op sink attached) and the anchor
# cells (the median wall of 5 runs per side, alternating like the
# microbench cells).  It also times five end-to-end
# runs (fig4_8_mp3_latency, fig4_5_fault_surface, the FEC-vs-CRC
# ablation, a single-threaded 128x128 dense broadcast and the
# wormhole-vs-gossip ablation; median wall seconds and peak RSS of 6 runs
# each) into the snapshot's `figures` block.  Each anchor cell records
# its table's post-construction `wall [s]` and the whole process's wall
# time, peak RSS and peak RSS per tile.  Given a baseline build dir
# (e.g. a build of the parent commit), every cell is measured there too
# and recorded as `before` next to `after` (figure runs interleaved, the
# side that runs first alternating per round), with
# the commit of the baseline's source tree (read from its CMakeCache.txt)
# as `before_sha`.  Also runs the flow-control ablation (xy /
# wormhole / deflection / store-forward / cut-through / adaptive on the
# fig4_6 pi workload) and writes BENCH_router.json, which also carries
# the router-core ns/cycle cells (after and before) and the snapshot's
# own wall time.  Commit the refreshed
# snapshots alongside engine- or router-performance changes so
# regressions show up in review.
#
#   scripts/bench_snapshot.sh [build-dir [baseline-build-dir]]  # default build/
#
# The snapshot asserts the acceptance figures and exits non-zero if any
# regresses:
#   * ns/round on the largest sparse mesh is at most 5x the smallest's
#     (a round costs O(active tiles), not O(tiles)),
#   * the 1000x1000 sparse cell completes in less wall time than the
#     256x256 broadcast,
#   * cut-through needs fewer cycles than store-and-forward, and the
#     fault-adaptive policy's faulted completion rate is no worse than
#     the dimension-ordered schemes'.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
BASELINE_DIR="${2:-}"
SNAPSHOT_START="$(date +%s)"
OUT="BENCH_engine.json"
OUT_ROUTER="BENCH_router.json"

if [[ ! -x "$BUILD_DIR/bench/perf_microbench" ]]; then
    echo "bench_snapshot: $BUILD_DIR/bench/perf_microbench missing — build first" >&2
    exit 1
fi

ROUTER_JSON="$(mktemp)"
FIGURES_JSON="$(mktemp)"
trap 'rm -f "$ROUTER_JSON" "$FIGURES_JSON"' EXIT

# --- End-to-end figure timings ------------------------------------------
BUILD_DIR="$BUILD_DIR" BASELINE_DIR="$BASELINE_DIR" FIGURES_JSON="$FIGURES_JSON" \
python3 - <<'PY'
import json, os, platform, statistics, subprocess, sys, time

# Per cell and side; the median wall time is recorded.  Rounds alternate
# which side runs first, so an order or neighbour effect lands on both
# sides alike instead of always on `after`.
RUNS = 6

# (name, bench binary, arguments): default sweep arguments, so the wall
# time is what regenerating the figure costs.
CELLS = [
    ("fig4_8_mp3_latency", "fig4_8_mp3_latency", []),
    ("fig4_5_fault_surface", "fig4_5_fault_surface", []),
    # SECDED next to CRC-only: the upset-verdict cell with FEC repairs.
    ("ablation_fec_vs_crc", "ablation_fec_vs_crc", []),
    ("dense_128x128_broadcast", "ablation_scalability",
     ["--sides", "128", "--repeats", "1", "--jobs", "1"]),
    # The wormhole router's cell: a load sweep plus crash sweeps whose
    # wedged worms run to the cycle budget.
    ("ablation_wormhole_vs_gossip", "ablation_wormhole_vs_gossip", []),
]

def timed(binary, args):
    """Wall seconds and peak RSS (MB) of one run of `binary`."""
    start = time.perf_counter()
    proc = subprocess.Popen([binary, *args], stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    if status != 0:
        sys.exit(f"bench_snapshot: {binary} exited with status {status}")
    return wall, usage.ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux

def summary(samples):
    return {"wall_s": round(statistics.median(w for w, _ in samples), 3),
            "peak_rss_mb": round(max(r for _, r in samples), 1)}

def source_sha(build):
    """Commit of the source tree `build` was configured from."""
    with open(os.path.join(build, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                source = line.split("=", 1)[1].strip()
                break
        else:
            sys.exit(f"bench_snapshot: no CMAKE_HOME_DIRECTORY in {build}")
    proc = subprocess.run(["git", "-C", source, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"bench_snapshot: {source} (source of {build}) is not a git "
                 "checkout, so the baseline's commit is unknown")
    return proc.stdout.strip()

sides = [("after", os.environ["BUILD_DIR"])]
before_sha = None
if os.environ["BASELINE_DIR"]:
    sides.append(("before", os.environ["BASELINE_DIR"]))
    before_sha = source_sha(os.environ["BASELINE_DIR"])

cpu = ""
try:
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
except OSError:
    pass

benches = {}
for name, binary, args in CELLS:
    samples = {side: [] for side, _ in sides}
    for r in range(RUNS):  # interleaved, so host drift hits both sides
        for side, build in (sides if r % 2 == 0 else sides[::-1]):
            samples[side].append(timed(os.path.join(build, "bench", binary), args))
    row = {"command": " ".join([binary, *args]), "runs": RUNS}
    for side, _ in sides:
        row[side] = summary(samples[side])
    benches[name] = row
    line = f"{name}: {row['after']['wall_s']:.2f}s"
    if "before" in row:
        line += f" (before {row['before']['wall_s']:.2f}s)"
    print(line)

figures = {
    "machine": {"uname": " ".join(platform.uname()), "cpu": cpu,
                "cores": os.cpu_count()},
    "benches": benches,
}
if before_sha:
    figures["before_sha"] = before_sha
with open(os.environ["FIGURES_JSON"], "w") as f:
    json.dump(figures, f)
PY

# --- Router snapshot: flow-control schemes on the fig4_6 workload -------
"$BUILD_DIR/bench/ablation_flow_control" \
    --repeats 5 --json > "$ROUTER_JSON"

ROUTER_JSON="$ROUTER_JSON" OUT_ROUTER="$OUT_ROUTER" python3 - <<'PY'
import json, os, platform, subprocess, sys

def sh(*cmd):
    return subprocess.run(cmd, capture_output=True, text=True).stdout.strip()

text = open(os.environ["ROUTER_JSON"]).read()
start = text.index("\n[\n") + 1
end = text.index("\n]", start) + 2
rows = json.loads(text[start:end])

def cell(backend, faults):
    for row in rows:
        if row["backend"] == backend and row["faults"] == faults:
            return row
    sys.exit(f"bench_snapshot: no row for {backend}/{faults}")

cpu = ""
try:
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
except OSError:
    pass

snapshot = {
    "schema_version": 1,
    "machine": {
        "uname": " ".join(platform.uname()),
        "cpu": cpu,
        "cores": os.cpu_count(),
    },
    "git_sha": sh("git", "rev-parse", "HEAD"),
    "workload": "fig4_6 Master-Slave pi scatter/gather + corner exchange, "
                "5 repeats, healthy and p_tiles=0.1",
    "rows": rows,
}
with open(os.environ["OUT_ROUTER"], "w") as f:
    json.dump(snapshot, f, indent=2, sort_keys=True)
    f.write("\n")

vct = float(cell("cut-through", "none")["cycles"])
saf = float(cell("store-forward", "none")["cycles"])
adaptive_ok = float(cell("adaptive", "p_tiles=0.1")["completion"]) >= \
    float(cell("store-forward", "p_tiles=0.1")["completion"])
print(f"cut-through vs store-and-forward cycles: {vct:.0f} vs {saf:.0f}")
print(f"adaptive faulted completion >= store-forward's: {adaptive_ok}")
ok = vct < saf and adaptive_ok
print(f"wrote {os.environ['OUT_ROUTER']}" + ("" if ok else " (TARGETS MISSED)"))
sys.exit(0 if ok else 1)
PY

# --- Engine snapshot ----------------------------------------------------

# Anchor cells: the full 256x256 broadcast is the classic dense workload
# (everything active until the TTL drain); the 1000x1000 short-TTL
# wavefront is the sparse one.
BUILD_DIR="$BUILD_DIR" BASELINE_DIR="$BASELINE_DIR" \
FIGURES_JSON="$FIGURES_JSON" OUT="$OUT" OUT_ROUTER="$OUT_ROUTER" \
SNAPSHOT_START="$SNAPSHOT_START" \
python3 - <<'PY'
import json, os, platform, re, statistics, subprocess, sys, time

def sh(*cmd):
    return subprocess.run(cmd, capture_output=True, text=True).stdout.strip()

def run(cmd):
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"bench_snapshot: {' '.join(cmd)} exited with status "
                 f"{proc.returncode}")
    return proc.stdout

ROUTER_CYCLE_CELLS = {"0": "adaptive_p_tiles_0.1", "1": "store_forward"}
WORMHOLE_CYCLE_CELLS = {"0": "xy_saturated", "1": "xy_saturated_centre_dead"}

def microbench(build):
    """One perf_microbench run: per-side ns/round of BM_SparseBroadcast;
    BM_GossipRound (detached), BM_GossipRoundNullSink and
    BM_GossipRoundRecorded ns/round per side; BM_RouterCycle and
    BM_WormholeStep ns/cycle per cell (empty for a baseline that predates
    them).  A baseline that still has one sparse benchmark per engine
    contributes its faster one per side."""
    text = run([os.path.join(build, "bench", "perf_microbench"),
                "--benchmark_filter="
                "SparseBroadcast|GossipRound|RouterCycle|WormholeStep",
                "--benchmark_format=json"])
    # perf_microbench appends its plain-text fan-out summary after the
    # benchmark JSON; raw_decode stops at the end of the JSON object.
    micro, _ = json.JSONDecoder().raw_decode(text)
    sparse = {}
    gossip_round = {"detached": {}, "null_sink": {}, "recorded": {}}
    router_cycle = {}
    wormhole_cycle = {}
    for b in micro["benchmarks"]:
        m = re.match(r"BM_RouterCycle/(\d+)$", b["name"])
        if m:
            router_cycle[ROUTER_CYCLE_CELLS[m.group(1)]] = b["ns_per_cycle"]
            continue
        m = re.match(r"BM_WormholeStep/(\d+)$", b["name"])
        if m:
            wormhole_cycle[WORMHOLE_CYCLE_CELLS[m.group(1)]] = b["ns_per_cycle"]
            continue
        ns = 1e9 / b["items_per_second"]
        # A fixed iteration count appends "/iterations:N" to the name.
        m = re.match(r"BM_SparseBroadcast\w*/(\d+)(?:/iterations:\d+)?$", b["name"])
        if m:
            side = int(m.group(1))
            sparse[side] = min(ns, sparse.get(side, ns))
            continue
        m = re.match(r"BM_GossipRound(NullSink|Recorded)?/(\d+)$", b["name"])
        if m:
            variant = {"NullSink": "null_sink", "Recorded": "recorded"}.get(
                m.group(1), "detached")
            gossip_round[variant][int(m.group(2))] = ns
    return {"ns_per_round": sparse, "gossip_round_ns": gossip_round,
            "router_cycle_ns": router_cycle, "wormhole_cycle_ns": wormhole_cycle}

def median_cells(runs):
    """Per-cell median over runs of one shape ({key: number or dict})."""
    return {key: median_cells([r[key] for r in runs]) if isinstance(value, dict)
            else statistics.median(r[key] for r in runs)
            for key, value in runs[0].items()}

def wall_cell(build, args):
    """The cell's table row, plus the process's own wall time and peak
    RSS: the table's `wall [s]` starts after the network is built, so
    only the process figures show what construction costs."""
    cmd = [os.path.join(build, "bench", "ablation_scalability"),
           *args, "--repeats", "1", "--json"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    text = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    process_wall = time.perf_counter() - start
    if status != 0:
        sys.exit(f"bench_snapshot: {' '.join(cmd)} exited with status {status}")
    # The table is pretty-printed as a "[" line, row lines, a "]" line —
    # column names themselves contain brackets ("coverage [%]"), so slice
    # on whole lines rather than the first bracket characters.
    start = text.index("\n[\n") + 1
    end = text.index("\n]", start) + 2
    row = json.loads(text[start:end])[0]
    width, height = (int(side) for side in row["mesh"].split("x"))
    return {
        "mesh": row["mesh"],
        "rounds": float(row["rounds"]),
        "tiles_reached": float(row["tiles reached"]),
        "coverage_pct": float(row["coverage [%]"]),
        "wall_s": float(row["wall [s]"]),
        "process_wall_s": round(process_wall, 3),
        "peak_rss_mb": round(usage.ru_maxrss / 1024.0, 1),  # KiB on Linux
        # Everything the process held at its peak, spread over the tiles:
        # at 1000x1000 the per-tile network state dominates it.
        "peak_rss_bytes_per_tile": round(usage.ru_maxrss * 1024.0 / (width * height)),
    }

SCALABILITY = {
    "broadcast_256x256": ["--sides", "256"],
    "sparse_1000x1000": ["--sides", "1000", "--ttl", "40"],
}

build, baseline = os.environ["BUILD_DIR"], os.environ["BASELINE_DIR"]

# Microbench cells: one run per side read drift between the two runs as a
# change, so each side runs MICRO_PAIRS times, the side that runs first
# alternating per pair as the figure runs do, and every cell records its
# median.
MICRO_PAIRS = 5
sides = [("after", build)] + ([("before", baseline)] if baseline else [])
micro_runs = {side: [] for side, _ in sides}
for pair in range(MICRO_PAIRS):
    for side, path in (sides if pair % 2 == 0 else sides[::-1]):
        micro_runs[side].append(microbench(path))
micro = {side: median_cells(runs) for side, runs in micro_runs.items()}
ns_per_round = micro["after"]["ns_per_round"]
gossip_round = micro["after"]["gossip_round_ns"]
router_cycle = micro["after"]["router_cycle_ns"]
wormhole_cycle = micro["after"]["wormhole_cycle_ns"]

# Anchor cells: one run per side read host drift as a change (1.72 ->
# 2.17 s table wall at 256x256 for code that draws nothing there), so
# each side runs ANCHOR_RUNS times, the side that runs first alternating
# per round as the figure cells do.  A cell records the median of each
# wall time and the largest peak RSS of its runs.
ANCHOR_RUNS = 5

def anchor_cell(runs):
    cell = dict(runs[0], runs=len(runs))
    for key in ("wall_s", "process_wall_s"):
        cell[key] = round(statistics.median(r[key] for r in runs), 3)
    for key in ("peak_rss_mb", "peak_rss_bytes_per_tile"):
        cell[key] = max(r[key] for r in runs)
    return cell

scalability = {}
for name, args in SCALABILITY.items():
    runs = {side: [] for side, _ in sides}
    for r in range(ANCHOR_RUNS):
        for side, path in (sides if r % 2 == 0 else sides[::-1]):
            runs[side].append(wall_cell(path, args))
    scalability[name] = anchor_cell(runs["after"])
    if baseline:
        cell = anchor_cell(runs["before"])
        scalability[name]["before"] = {
            key: cell[key] for key in ("wall_s", "process_wall_s", "peak_rss_mb",
                                       "peak_rss_bytes_per_tile")}
# The short-TTL wavefront reaches a few hundred of a million tiles, which
# rounds to 0.0%; the tile count is the anchor there.
del scalability["sparse_1000x1000"]["coverage_pct"]
ns_per_round_before = router_cycle_before = wormhole_cycle_before = None
if baseline:
    ns_per_round_before = micro["before"]["ns_per_round"]
    router_cycle_before = micro["before"]["router_cycle_ns"]
    wormhole_cycle_before = micro["before"]["wormhole_cycle_ns"]

# Flight-recorder overhead: BM_GossipRoundRecorded vs
# BM_GossipRoundNullSink, per mesh side.  Both attach a sink, so both take
# the traced path (which enqueues every duplicate copy, DESIGN.md §12),
# and the ratio is what recording costs.  It is recorded in the snapshot
# so regressions show up in review, but is not hard-gated here.  One run
# per side read 0.70-1.26 for code no change touched, so the snapshot
# records the median of RECORDER_PAIRS back-to-back pairs whose order
# alternates, as perfbench pairs its A/B runs: drift between the two runs
# of a pair cancels in its ratio.
RECORDER_PAIRS = 5

def gossip_round_ns(build, name):
    """ns/round per mesh side from one perf_microbench run of `name`."""
    text = run([os.path.join(build, "bench", "perf_microbench"),
                f"--benchmark_filter=^{name}/", "--benchmark_format=json"])
    micro, _ = json.JSONDecoder().raw_decode(text)
    return {int(b["name"].rsplit("/", 1)[1]): 1e9 / b["items_per_second"]
            for b in micro["benchmarks"]}

ratios = {}
for pair in range(RECORDER_PAIRS):
    names = ["BM_GossipRoundNullSink", "BM_GossipRoundRecorded"]
    if pair % 2:
        names.reverse()
    ns = {name: gossip_round_ns(build, name) for name in names}
    for side in ns["BM_GossipRoundNullSink"]:
        ratios.setdefault(side, []).append(
            ns["BM_GossipRoundRecorded"][side] / ns["BM_GossipRoundNullSink"][side])
recorder_overhead = {side: statistics.median(r) for side, r in sorted(ratios.items())}

cpu = ""
try:
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
except OSError:
    pass

snapshot = {
    "schema_version": 1,
    "machine": {
        "uname": " ".join(platform.uname()),
        "cpu": cpu,
        "cores": os.cpu_count(),
    },
    "git_sha": sh("git", "rev-parse", "HEAD"),
    "workload": "sparse corner broadcast, p=0.5, ttl=20 (microbench); "
                "scalability anchor cells below",
    "ns_per_round": ns_per_round,
    "gossip_round_ns": gossip_round,
    "flight_recorder_overhead": recorder_overhead,
    "router_cycle_ns": router_cycle,
    "wormhole_cycle_ns": wormhole_cycle,
    "scalability": scalability,
    "figures": json.load(open(os.environ["FIGURES_JSON"])),
}
if ns_per_round_before:
    snapshot["ns_per_round_before"] = ns_per_round_before
if router_cycle_before:
    snapshot["router_cycle_ns_before"] = router_cycle_before
if wormhole_cycle_before:
    snapshot["wormhole_cycle_ns_before"] = wormhole_cycle_before
snapshot_wall_s = round(time.time() - float(os.environ["SNAPSHOT_START"]), 1)
snapshot["snapshot_wall_s"] = snapshot_wall_s
with open(os.environ["OUT"], "w") as f:
    json.dump(snapshot, f, indent=2, sort_keys=True)
    f.write("\n")

# The router-core cycle cells also go next to the flow-control rows.
with open(os.environ["OUT_ROUTER"]) as f:
    router_snapshot = json.load(f)
router_snapshot["router_cycle_ns"] = router_cycle
if router_cycle_before:
    router_snapshot["router_cycle_ns_before"] = router_cycle_before
router_snapshot["snapshot_wall_s"] = snapshot_wall_s
with open(os.environ["OUT_ROUTER"], "w") as f:
    json.dump(router_snapshot, f, indent=2, sort_keys=True)
    f.write("\n")

smallest, largest = min(ns_per_round), max(ns_per_round)
growth = ns_per_round[largest] / ns_per_round[smallest]
broadcast = scalability["broadcast_256x256"]["wall_s"]
sparse = scalability["sparse_1000x1000"]["wall_s"]
for side, ratio in recorder_overhead.items():
    note = "" if ratio <= 1.05 else "  (over the 5% budget)"
    print(f"flight-recorder overhead at {side}x{side}: "
          f"{(ratio - 1.0) * 100:+.1f}%{note}")
print(f"sparse ns/round {largest}x{largest} vs {smallest}x{smallest}: "
      f"{growth:.1f}x (target <= 5x)")
print(f"sparse 1000x1000: {sparse:.2f}s vs broadcast 256x256: {broadcast:.2f}s")
ok = growth <= 5.0 and sparse < broadcast
print(f"wrote {os.environ['OUT']}" + ("" if ok else " (TARGETS MISSED)"))
sys.exit(0 if ok else 1)
PY
