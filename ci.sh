#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full test suite.
# Run from the repository root: ./ci.sh
# ./ci.sh --mutants also runs the source-mutant suite (./mutants.sh), which
# rebuilds once per mutant and so stays out of the default run.
set -euo pipefail
cd "$(dirname "$0")"

mutants=0
case "${1:-}" in
    "") ;;
    --mutants) mutants=1 ;;
    *) echo "usage: ./ci.sh [--mutants]"; exit 2 ;;
esac

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (warnings are errors) =="
# or_fun_call: an error value built with `ok_or(format!(..))` is built on
# every call, successful or not; `ok_or_else` builds it on failure only.
cargo clippy --workspace --all-targets -- -D warnings -D clippy::or_fun_call

echo "== one owner of rank state: only dtl-core's power.rs writes it =="
# Outside power.rs and the files that define them, no non-test line of
# dtl-core may call the backend's, the allocator's or the hotness engine's
# rank-state setters.
for f in crates/core/src/*.rs; do
    case "$f" in */power.rs | */backend.rs | */alloc.rs | */hotness.rs) continue ;; esac
    if awk '/^#\[cfg\(test\)\]/{exit} {print FILENAME":"FNR": "$0}' "$f" \
        | grep -E 'set_rank_state\(|set_rank_active\(|on_sr_exit\(|on_plan_migrated\('; then
        echo "rank state written outside crates/core/src/power.rs"; exit 1
    fi
done

echo "== DtlDevice is a facade: admission and fault state have one owner each =="
# No non-test line of device.rs reads or writes host / VM admission state or
# records an error in the health tracker: those go through admission.rs
# (DtlDevice::admission()) and health.rs (its entries of DtlDevice::power()).
# What the facade may read of them is named here: the sweep and snapshot
# read-outs and the admission SLO read-outs.
device_lines() {
    awk '/^#\[cfg\(test\)\]/{exit} {print FILENAME":"FNR": "$0}' crates/core/src/device.rs
}
if device_lines | grep -E 'HashMap|HostState|free_aus|next_au|next_vm|mapped_aus|registered in step' \
    || device_lines | grep -E 'self\.admission\.' \
        | grep -vE 'self\.admission\.((check|snapshot)\(|slo$|last_latency$)' \
    || device_lines | grep -E 'health\.record|\.record_(un)?correctable\('; then
    echo "device.rs touches admission or health state directly"; exit 1
fi
# ... and stays a facade in size: under 1 000 non-test lines.
lines=$(device_lines | wc -l)
[ "$lines" -lt 1000 ] || { echo "device.rs has $lines non-test lines (>= 1000)"; exit 1; }

echo "== one hasher: the simulator's hash maps are dtl_dram::FastMap / FastSet =="
# No non-test line under crates/*/src may name std's HashMap or HashSet:
# SipHash is slow on the per-op paths and keyed at random per process.
# Exempt: the file that defines the aliases, and dtl-trace, which depends
# on no dtl crate and runs its two maps once per synthesis.
for f in $(find crates/*/src -name '*.rs' | sort); do
    case "$f" in crates/dram/src/hash.rs | crates/trace/*) continue ;; esac
    if awk '/^#\[cfg\(test\)\]/{exit} {print FILENAME":"FNR": "$0}' "$f" \
        | grep -E 'collections::(\{[^}]*)?Hash(Map|Set)'; then
        echo "a std hash map outside crates/dram/src/hash.rs"; exit 1
    fi
done

echo "== cargo test =="
cargo test -q

# Index arithmetic once more without debug assertions: every structure
# that replaced a slower one, in lockstep with the one it replaced (dense
# tables, the allocator's free runs and bitmaps, SMC L1 index, job-origin
# window; the mixer's lookahead rings; the FR-FCFS pick; the fabric's dense
# routes and ledgers; the plain-value histogram against its samples) — and
# the device property,
# whose sweep cross-checks the copies of every rank's state.
echo "== lockstep proptests, device property (release) =="
cargo test --release -q -p dtl-core -p dtl-trace -p dtl-dram -p dtl-fabric -p dtl-telemetry \
    --lib lockstep_with_the
cargo test --release -q -p dtl-core --test prop_device
# The FR-FCFS pick's work, counted: candidates evaluated per decision on an
# open-loop stream. A regression fails here by count, not by stopwatch.
cargo test --release -q -p dtl-dram --lib candidates_evaluated_per_pick
# A fresh paper-geometry device's heap, counted by a global allocator: a
# per-segment cost at build time fails here by bytes, not by stopwatch. The
# same at rack scale: a 4-device pool, a fabric_load cell, a vm_campaign host.
# And the allocations one vm_campaign host replay makes: a per-AU or
# per-event heap cost in admission, release or drains fails here by count.
cargo test --release -q -p dtl-core --test device_footprint
cargo test --release -q -p dtl-sim --test rack_footprint
cargo test --release -q -p dtl-sim --test fleet_allocations

if [ "$mutants" -eq 1 ]; then
    echo "== source mutants: each one caught by the test it names (release) =="
    ./mutants.sh
fi

echo "== smoke suite on the parallel path (--jobs 2) =="
cargo build --release -q -p dtl-bench
dtl=./target/release/dtl
# The perf ledger's fuzz_oracle workload through the registry: per seed, the
# commands the oracle replayed and the checks it ran, against their golden.
timeout 30 $dtl diff_fuzz --tiny --jobs 2 --out /tmp/dtl_ci_diff_fuzz.json > /dev/null
diff /tmp/dtl_ci_diff_fuzz.json results/golden/diff_fuzz_tiny.json
timeout 60 $dtl fault_campaign --tiny --jobs 2
timeout 30 $dtl pool_scale --tiny --jobs 2
# The perf ledger's pool_failover workload through the registry: failover
# campaigns that assert the pool's invariants after every injected fault,
# byte for byte against their golden.
timeout 60 $dtl pool_failover --tiny --seed 7 --campaigns 2 --jobs 2 \
    --out /tmp/dtl_ci_pool_failover.json > /dev/null
diff /tmp/dtl_ci_pool_failover.json results/golden/pool_failover_tiny.json
timeout 30 $dtl policy_ablation --tiny --jobs 2 > /tmp/dtl_ci_policy.txt
timeout 30 $dtl vm_campaign --tiny --jobs 2
# The perf ledger's fabric_load workload through the registry: ports, routes
# and the pool's access path, byte for byte against its golden.
timeout 30 $dtl fabric_load --tiny --jobs 2 --out /tmp/dtl_ci_fabric_load.json \
    > /tmp/dtl_ci_fabric.txt
diff /tmp/dtl_ci_fabric_load.json results/golden/fabric_load_tiny.json
timeout 30 $dtl sec3_4_reentry --tiny
# The perf ledger's access_path workload through the registry: four
# baseline/treatment pairs, each stepped in lockstep from one trace.
timeout 60 $dtl fig14 --tiny --jobs 2
timeout 60 $dtl fig15 --tiny --jobs 2
# The one paper-scale run: fig12 is sub-second per replay. Its drains are
# still running when VMs leave, so this is the golden that pins the
# cancel-on-deallocate path (the tiny run never cancels a job there).
timeout 60 $dtl fig12 --jobs 2 --out /tmp/dtl_ci_fig12_paper.json > /dev/null
diff /tmp/dtl_ci_fig12_paper.json results/golden/fig12_paper.json
# The perf ledger's fleet_events run through the registry: four hosts over
# two weeks of VM arrivals and departures (about 0.1 s), pinning admission,
# dealloc-driven drains and capacity wakes at fleet scale, where the tiny
# golden covers eight hosts for one day.
timeout 60 $dtl vm_campaign --hosts 4 --minutes 20160 --jobs 2 \
    --out /tmp/dtl_ci_vm_campaign_fleet.json > /dev/null
diff /tmp/dtl_ci_vm_campaign_fleet.json results/golden/vm_campaign_fleet.json
# The perf ledger's cycle_dram workload through the registry: the cycle-level
# DDR4 model on the parallel path, byte for byte against its goldens.
for exp in fig02 sec6_6; do
    timeout 60 $dtl $exp --tiny --jobs 2 --out /tmp/dtl_ci_$exp.json > /dev/null
    diff /tmp/dtl_ci_$exp.json results/golden/${exp}_tiny.json
done

echo "== bad input exits 2 =="
# A horizon or window width that wraps (or zeroes) picosecond time is a
# parse error, not a silently shortened run or a worker panic.
expect_exit_2() {
    local code=0
    timeout 30 "$@" > /dev/null 2>&1 || code=$?
    [ "$code" -eq 2 ] || { echo "expected exit 2, got $code: $*"; exit 1; }
}
expect_exit_2 $dtl vm_campaign --tiny --minutes 307446
expect_exit_2 $dtl vm_campaign --tiny --timeseries-out /tmp/x.csv --timeseries-width-s 0
# So is an experiment's own integer flag that does not parse, not a default run.
expect_exit_2 $dtl diff_fuzz --smoke --seeds abc

echo "== policy_ablation covers every PowerPolicyKind =="
for policy in FixedThreshold AdaptiveDemotion RefreshAware; do
    grep -q "$policy" /tmp/dtl_ci_policy.txt \
      || { echo "policy_ablation matrix lost $policy"; exit 1; }
done

echo "== fabric_load sweeps both placement variants =="
for variant in pack_one_switch spread_switches; do
    grep -q "$variant" /tmp/dtl_ci_fabric.txt \
      || { echo "fabric_load sweep lost $variant"; exit 1; }
done

echo "== windowed time-series output (--timeseries-out) =="
timeout 30 $dtl vm_campaign --tiny --jobs 2 \
    --timeseries-out /tmp/dtl_ci_series.csv --timeseries-width-s 3600
head -1 /tmp/dtl_ci_series.csv | grep -q '^window,start_ps,end_ps,standby_ps' \
  || { echo "time-series CSV header drifted"; exit 1; }

echo "== cargo doc (warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "== perf ledger builds against the crates and reproduces the registry JSON =="
(cd benchmark && cargo test --offline -q)
timeout 300 benchmark/run.sh --quick > /dev/null

# Last: a wall-clock comparison, which a busy shared host can fail on its own.
echo "== telemetry overhead guard (release) =="
cargo test -p dtl-telemetry --release --test overhead_guard -q -- --ignored

echo "ci: all green"
