#!/bin/sh
# The mutation ratchet on the analysis kernels, the per-function
# windows of the fold and its two trace-long accumulators, the block
# summary's chunked index, the resident event lists, the zoom, the partial
# reports' one fold, footprint union and list codec, the watch loop,
# serve's window loads, the address-keyed side tables, the static
# side's procedure summaries and abstract interpreter, the native
# kernels' RMAT descent and v3 map, the wire kit's XXH64 and
# versioned open, and the PT model's cost rule and token-bucket refill.
#
# Each tests/mutants/*.patch is one minimal hunk against
# crates/memgaze-analysis/src (the kernels, zoom.rs and partial.rs),
# crates/memgaze-core/src/watch.rs, crates/memgaze-serve/src/session.rs,
# crates/memgaze-model/src/{annot,hash,wire}.rs, crates/memgaze-isa/src,
# crates/memgaze-workloads/src or crates/memgaze-ptsim/src whose header
# carries a line
#   # suite: <cargo test arguments>
# naming the suite that must fail under it (serve's two window-loads
# mutants, serve_window_loads_from_session_period.patch and
# serve_window_loads_from_trigger_span.patch, both name the retune test
# of tests/watch_equivalence.rs; merge_many_one_running_fold.patch, on
# the binary counter `merge_many` folds through in partial.rs, names the
# partial module's unit test that holds the runs to the binary digits of
# the part count;
# sorted_list_accepts_a_repeat.patch, on the MGZP footprint decoder,
# names the partial module's unit test of a repeated footprint block,
# and absorb_keeps_one_mask.patch, on the footprint union of a partial
# merge, its test of merged partials against one pass;
# the per-function window mutants,
# tracker_window_ignores_earlier_first_touches.patch and
# sample_window_when_ends_share_a_function.patch, name
# crates/memgaze-analysis/tests/spec_equivalence.rs, as do
# tracker_skips_every_97th_feed.patch and class_mask_carry.patch, which
# patch the window path (the latter the footprint chunks' class
# columns); of the fold's two trace-long accumulators,
# footprint_chunk_key_times_63.patch, on the footprint list a
# function's chunks emit, and footprint_line_shift_k_minus_1.patch, on
# where a line's footprint bits land in its chunk, name the partial
# module's unit test of chunk edges at every block size;
# masked_pass_drops_irregular.patch, on the reuse pass that keeps the
# footprint bits, names the kernel's unit test that holds that pass to
# the distinct pass at every split of a line; block_table_sums_max_dist.patch, on
# the one block-stat table, the unit test that holds that table to the
# per-sample summaries merged; region_max_skips_the_tail_chunk.patch, on
# the block summary's chunked range max, the unit test that holds its
# index to a scan at every range end on and beside a chunk edge;
# kept_list_interval_off_by_one.patch, on how the resident analyzer
# loads the fold's kept reuse rows (the kernel's own) for its locality
# series, names the unit test that holds that series to
# locality_vs_interval_with bit for bit; of the summary mutants,
# summary_keeps_first_round_ranges.patch names the chain test of
# tests/verifier_properties.rs and unknown_callee_clobbers_nothing.patch
# the call_clobbers_scratch unit tests of memgaze-isa; the two mutants
# of the abstract interpreter, scale_memo_ignores_the_factor.patch on
# its memo of multiples and load_value_from_first_visit.patch on the
# address values its loop fixpoints record, name the wide-form test of
# tests/ir_digests.rs; rmat_v_bit_of_two_thresholds.patch, on the
# integer RMAT descent, names the graph module's unit tests (the float
# oracle, the pinned graphs), and
# hopscotch_clear_keeps_the_window_tail.patch, on the v3 map's clear of
# its window, the hashes module's (random windows against a HashMap);
# xxh64_skips_the_tail_bytes.patch names the published XXH64 vectors,
# and open_checks_version_1_with_xxh64.patch, on the sum `wire::open`
# picks by version, the store test of tests/wire_golden.rs that plants
# a version-1 catalog and its blobs; packet_cost_without_sideband.patch,
# on what a ptwrite packet costs in the trace buffer, names the packet
# sampler's pins in tests/ptsim_pins.rs, and
# stream_full_refills_after_the_record.patch, on when the stream
# full collector refills, the hand-counted refill test of
# tests/space_and_overhead.rs).
# For every patch
# this script applies it with `git apply`, builds and runs that suite in
# release, requires the suite to fail, and reverts with `git apply -R`.
# A patch that no longer applies, a mutant that does not build, a suite
# that fails without its mutant (it would kill anything) and a suite
# that still passes with it all fail the run. It prints killed/total
# and exits 0 only when every mutant is killed.
#
# Usage: tests/mutants/run.sh [PATCH...]   (default: every patch)
# It edits the sources it tests while it runs: run it on a tree with no
# other build or edit in flight.
set -u
cd "$(dirname "$0")/../.." || exit 2
[ $# -gt 0 ] || set -- tests/mutants/*.patch

total=0
killed=0
clean=""
for patch in "$@"; do
    total=$((total + 1))
    name=$(basename "$patch" .patch)
    suite=$(sed -n 's/^# suite: //p' "$patch" | head -n 1)
    if [ -z "$suite" ]; then
        echo "$name: FAILED (no '# suite:' line)"
        continue
    fi
    # $suite is a list of cargo arguments: split it.
    # shellcheck disable=SC2086
    case "$clean" in
    *"|$suite|"*) ;;
    *)
        if ! cargo test --release -q $suite >/dev/null 2>&1; then
            echo "$name: FAILED (cargo test $suite fails without the mutant)"
            continue
        fi
        clean="$clean|$suite|"
        ;;
    esac
    if ! git apply "$patch"; then
        echo "$name: FAILED (the patch no longer applies)"
        continue
    fi
    trap 'git apply -R "$patch"; exit 130' INT TERM
    # shellcheck disable=SC2086
    if ! cargo test --release -q $suite --no-run >/dev/null 2>&1; then
        echo "$name: FAILED (the mutant does not build)"
    elif cargo test --release -q $suite >/dev/null 2>&1; then
        echo "$name: SURVIVED cargo test $suite"
    else
        echo "$name: killed by cargo test $suite"
        killed=$((killed + 1))
    fi
    git apply -R "$patch" || exit 2
    trap - INT TERM
done
echo "killed $killed/$total"
[ "$killed" -eq "$total" ]
