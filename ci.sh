#!/usr/bin/env bash
# Local CI gate: everything must pass before a change lands.
#
#   ./ci.sh          full gate (release build, tests, clippy, fmt)
#   ./ci.sh fast     skip the release build (debug tests + lints only)
#
# The workspace builds fully offline: external dependencies are vendored
# stand-ins under vendor/ (see Cargo.toml), so no registry access is
# needed at any step.
set -euo pipefail
cd "$(dirname "$0")"

step() { printf '\n==> %s\n' "$*"; }

# Negative control for a bin's --check gate, run after the gate passed on
# DOC: two broken copies, DOC cut to its first 64 bytes and DOC with its
# SCHEMA string renamed, must each exit 1, which proves the gate can fail.
check_rejects_broken() {
    local bin=$1 doc=$2 schema=$3
    head -c 64 "$doc" > "$doc.truncated"
    sed "s/$schema/$schema-renamed/g" "$doc" > "$doc.renamed"
    for broken in "$doc.truncated" "$doc.renamed"; do
        status=0
        cargo run --release -q -p planaria-bench --bin "$bin" -- --check "$broken" \
            > /dev/null 2>&1 || status=$?
        if [[ "$status" -ne 1 ]]; then
            echo "$bin --check negative control failed: $broken exited $status, want 1"
            exit 1
        fi
    done
    rm -f "$doc.truncated" "$doc.renamed"
    echo "$bin --check: a truncated and a schema-renamed copy both exit 1"
}

if [[ "${1:-}" != "fast" ]]; then
    step "cargo build --release"
    cargo build --release --workspace

    step "result oracle (release build)"
    # tests/fingerprints.rs pins every kind x app open loop plus the closed,
    # warmup and DRAM-pressure cells, but the debug `cargo test` below is
    # its only other run, and perfbench's pinned runs cover just three
    # workloads. Optimised code must produce the same digests.
    cargo test --release -q -p planaria-sim --test fingerprints
fi

step "cargo test -q"
cargo test -q --workspace

step "determinism oracle (debug build)"
# The debug build is the strict one: debug_assert invariants (similarity
# bounds, eviction-order checks) are live, and overflow checks are on. The
# oracle proves bit-identical SimResults across worker thread counts (1 vs
# 8), across hashers (SipHash vs FxHash), and across repeated runs — the
# property every committed figure depends on. Runs in `fast` mode too.
cargo test -q -p planaria-sim --test determinism

if [[ "${1:-}" != "fast" ]]; then
    step "perfbench tests (the benchmark must build and pass against the library)"
    # perfbench/ is a workspace of its own that compiles against the
    # crates' public APIs through path dependencies. A library change that
    # breaks its build, or changes the run_stream pull schedule its
    # wrappers pin, fails the gate here.
    CARGO_TARGET_DIR=target/perfbench cargo test --release --offline \
        --manifest-path perfbench/Cargo.toml

    step "perfbench pinned results (seed-0 runs must match perfbench/src/expected.rs; fleet peak RSS < 310 MiB)"
    # The tests above never run a workload, so a hot-path change that moves
    # a pinned seed-0 fingerprint would pass them. A one-second run checks
    # every operation of its workload against the pinned digests; its last
    # stdout line is the result object. The traced run (--trace 1) also
    # checks that traced fingerprints equal untraced ones and that every
    # recorded layer tape replays to the in-run digests.
    for trace in 0 1; do
        for w in open-planaria open-bop-packed served-fleet; do
            line=$(CARGO_TARGET_DIR=target/perfbench cargo run --release --offline --quiet \
                --manifest-path perfbench/Cargo.toml -- \
                --workload "$w" --seed 0 --seconds 1 --trace "$trace" | tail -n 1)
            if [[ "$line" != *'"correct":true'* || "$line" != *'"failed":0,'* ]]; then
                echo "perfbench $w --trace $trace: pinned results do not match: $line"
                exit 1
            fi
            echo "perfbench $w --trace $trace: correct, 0 failed"
            if [[ "$w" == served-fleet && "$trace" == 0 ]]; then
                # A served device holds no access buffer between turns, and
                # SLP's FT and AT evict through a recency list of 4 B per
                # slot: the fleet peaks near 294 MiB. FT and AT that went back
                # to a heap of stale (last, page) snapshots (about 11 KiB per
                # device) peak near 327 MiB, and a device that kept its
                # 256-access pull buffer between turns (6 KiB x 3000 devices)
                # adds about 17 MiB. The gate sits between.
                rss=$(grep -oE '"peak_rss_mb":\{"value":[0-9.]+' <<< "$line" | grep -oE '[0-9.]+$' || true)
                if [[ -z "$rss" ]] || ! awk -v r="$rss" 'BEGIN { exit !(r < 310) }'; then
                    echo "perfbench served-fleet: peak_rss_mb ${rss:-unknown} is not under 310"
                    exit 1
                fi
                echo "perfbench served-fleet: peak_rss_mb $rss, under 310"
            fi
        done
    done

    step "contention sweep (closed-loop traffic model smoke test)"
    cargo run --release -q -p planaria-bench --bin contention -- \
        --len 4000 --apps hok --windows 2,8 --out target/contention_ci.json
    cargo run --release -q -p planaria-bench --bin contention -- --check target/contention_ci.json
    check_rejects_broken contention target/contention_ci.json planaria-contention-v1

    step "serve load (100k concurrent device sessions through planaria-serve)"
    # The service-layer scale gate: every session is a live snapshottable
    # state machine (SC + prefetcher + DRAM), all resident at once. Short
    # per-session traces keep the wall clock down; the concurrency is the
    # point. --check validates the emitted planaria-serve-v1 document, and
    # the peak RSS must stay under 100 KiB per resident device.
    devices=100000
    cargo run --release -q -p planaria-bench --bin serve_load -- \
        --devices "$devices" --len 40 --out target/serve_load_ci.json
    cargo run --release -q -p planaria-bench --bin serve_load -- --check target/serve_load_ci.json
    check_rejects_broken serve_load target/serve_load_ci.json planaria-serve-v1
    rss=$(grep -oE '"peak_rss_kb": [0-9]+' target/serve_load_ci.json | grep -oE '[0-9]+$' || true)
    if [[ -z "$rss" || "$rss" -gt $((100 * devices)) ]]; then
        echo "serve load: peak RSS ${rss:-unknown} KiB exceeds 100 KiB x $devices devices"
        exit 1
    fi
    echo "serve load: peak RSS $rss KiB, $(awk -v r="$rss" -v d="$devices" \
        'BEGIN { printf "%.1f", r / d }') KiB per device"

    step "streamed replay (pack 10M accesses, replay from disk in flat memory)"
    # Exercises the full on-disk path at a size where materializing the
    # 180 MB file would take ~240 MB but the streamed replay stays flat:
    # record a packed planaria-trace-v1 file with trace_pack, replay it
    # through the streamed engine, and gate on the emitted document and on
    # its peak RSS staying under 64 MiB.
    cargo run --release -q -p planaria-trace --bin trace_pack -- \
        record --app HoK --len 10000000 --out target/ci_hok10m.ptrace
    cargo run --release -q -p planaria-bench --bin replay -- \
        --trace target/ci_hok10m.ptrace --out target/ci_stream.json
    cargo run --release -q -p planaria-bench --bin replay -- --check target/ci_stream.json
    check_rejects_broken replay target/ci_stream.json planaria-perf-stream-v1
    rm -f target/ci_hok10m.ptrace
    hwm=$(grep -oE '"vm_hwm_kb": [0-9]+' target/ci_stream.json | grep -oE '[0-9]+$' || true)
    if [[ -z "$hwm" || "$hwm" -ge 65536 ]]; then
        echo "streamed replay: peak RSS ${hwm:-unknown} kB is not under 65536 kB"
        exit 1
    fi
    echo "streamed replay: peak RSS $hwm kB"

    step "figure grid memory (runner cells render their workloads in flat memory)"
    # Every runner cell streams its own workload chunk-at-a-time, so a
    # figure grid holds no trace: materializing these two 4M-access apps
    # would take ~190 MB. Each grid's stderr summary ends with the
    # process's peak RSS (VmHWM), which must stay under 64 MiB.
    grid_log=$(cargo run --release -q -p planaria-bench --bin figures -- fig8_amat \
        --len 4000000 --apps CFM,HoK --threads 2 2>&1 >/dev/null)
    grid_hwm=$(grep -oE 'peak RSS [0-9]+ kB' <<< "$grid_log" | tail -n 1 | grep -oE '[0-9]+' || true)
    if [[ -z "$grid_hwm" || "$grid_hwm" -ge 65536 ]]; then
        echo "figure grid: peak RSS ${grid_hwm:-unknown} kB is not under 65536 kB"
        exit 1
    fi
    echo "figure grid: peak RSS $grid_hwm kB"

    step "paper figures (each results/NAME.txt must equal what 'figures NAME' prints)"
    # The committed figures are the stdout of the figures binary at default
    # options. A change that moves any number fails here until the file is
    # regenerated with the same command (EXPERIMENTS.md, "Re-run everything").
    mkdir -p target/results_ci
    for file in results/*.txt; do
        name=$(basename "$file" .txt)
        cargo run --release -q -p planaria-bench --bin figures -- "$name" \
            > "target/results_ci/$name.txt"
        if ! diff -u "$file" "target/results_ci/$name.txt"; then
            echo "results: $file differs from 'figures $name'"
            exit 1
        fi
        echo "results: $file matches"
    done
fi

step "clippy negative control (each retired lint rule's fixture must fail clippy)"
# A scratch crate under the committed clippy.toml and the root
# [workspace.lints.*] tables (copied, not restated) holding one fixture
# per policy handed to rustc/clippy. Every lint must fire by name.
clippy_root=target/clippy_negative
rm -rf "$clippy_root"
mkdir -p "$clippy_root/src"
cp clippy.toml "$clippy_root/"
cp tests/clippy_negative/bad_r{1,2,3,5,7,10,11,12}.rs "$clippy_root/src/"
{
    printf '[package]\nname = "clippy-negative"\nversion = "0.0.0"\nedition = "2021"\n\n'
    printf '[lints]\nworkspace = true\n\n[workspace]\n\n'
    awk '/^\[/ { keep = /^\[workspace\.lints\./ } keep' Cargo.toml
} > "$clippy_root/Cargo.toml"
cat > "$clippy_root/src/lib.rs" <<'EOF'
//! Clippy negative control: each module and item below breaks the policy.
#![deny(clippy::disallowed_types)]
pub mod bad_r1;
pub mod bad_r2;
pub mod bad_r3;
pub mod bad_r5;
pub mod bad_r7;
pub mod bad_r10;
#[deny(clippy::cast_possible_truncation)]
pub mod bad_r11;
pub mod bad_r12;
pub fn undocumented() {
    unsafe {}
}
EOF
if clippy_out=$(cd "$clippy_root" && cargo clippy --offline -q -- -D warnings 2>&1); then
    echo "clippy negative control failed: the seeded crate passed clippy"
    exit 1
fi
# rustc spells lint names with hyphens in its `-D …` notes.
clippy_out=${clippy_out//-/_}
for lint in disallowed_types disallowed_methods unwrap_used todo dbg_macro unimplemented \
        cast_possible_truncation unsafe_code missing_docs iter_over_hash_type; do
    if ! grep -q "$lint" <<< "$clippy_out"; then
        echo "clippy negative control failed: $lint did not fire"
        exit 1
    fi
done
# Every entry of clippy.toml's lists must fire by path.
bans=()
for t in collections::HashMap collections::HashSet sync::Mutex sync::RwLock sync::Condvar \
        rc::Rc cell::RefCell; do
    bans+=("type \`std::$t\`")
done
for m in time::Instant::now time::SystemTime::now sync::mpsc::channel \
        env::{args,args_os,var,var_os,vars,vars_os,current_dir,current_exe,temp_dir} \
        collections::HashMap::{iter,iter_mut,keys,values,values_mut,drain,into_keys,into_values} \
        collections::HashSet::{iter,drain}; do
    bans+=("method \`std::$m\`")
done
for ban in "${bans[@]}"; do
    if ! grep -qF "disallowed $ban" <<< "$clippy_out"; then
        echo "clippy negative control failed: the $ban ban did not fire"
        exit 1
    fi
done

step "markdown link check (local targets must exist)"
link_fail=0
for doc in README.md DESIGN.md EXPERIMENTS.md ARCHITECTURE.md SERVING.md; do
    [[ -f "$doc" ]] || { printf '  %s: file missing\n' "$doc"; link_fail=1; continue; }
    # Every local markdown link target (not http/mailto/#anchor) must exist.
    while IFS= read -r target; do
        case "$target" in
            http*|mailto:*|'#'*) continue ;;
        esac
        path="${target%%#*}"
        if [[ ! -e "$path" ]]; then
            printf '  %s: broken link -> %s\n' "$doc" "$target"
            link_fail=1
        fi
    done < <(grep -oE '\]\([^)]+\)' "$doc" | sed 's/^](//; s/)$//')
done
[[ "$link_fail" -eq 0 ]] || { echo "markdown link check failed"; exit 1; }

step "cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

step "cargo fmt --check"
cargo fmt --all --check

step "cargo doc (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

step "ci.sh: all green"
