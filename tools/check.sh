#!/usr/bin/env bash
# Tier-1 verification: pin-discipline, serving-stack layering and
# dead-option lints, configure, build, full test suite, then the
# randomized storage stress harness under ASan+UBSan.
# Usage: tools/check.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

# --- Pin-discipline lint: outside src/storage/ (and the tests, which
# exercise the raw API on purpose), pages are pinned only through
# PageGuard/NewPageGuard — a raw FetchPage/NewPage/Unpin call site is a
# review error even when it happens to be balanced.
raw_pins=$(grep -rnE '(->|\.)(FetchPage|NewPage|Unpin)\(' \
    src bench examples tools --include='*.cc' --include='*.h' \
    | grep -v '^src/storage/' || true)
if [[ -n "${raw_pins}" ]]; then
  echo "error: raw buffer-pin calls outside src/storage/ (use PageGuard):"
  echo "${raw_pins}"
  exit 1
fi

# --- Serving-stack layering lint: the paged machinery (the TcSession
# closure runs, the simulated disk and buffer pool, the successor-list
# store) is the paper's instrument, not a query engine, so no serving-stack
# source may include it.
paged_includes=$(grep -rnE '#include "(core/session\.h|storage/|succ/)' \
    src/reach src/dynamic src/persist src/replica src/scale src/workload \
    || true)
if [[ -n "${paged_includes}" ]]; then
  echo "error: serving-stack sources include the paged machinery:"
  echo "${paged_includes}"
  exit 1
fi

# --- Dead-option lint: ReachServer keeps one lane per calling thread and
# reads no shard count. ReachServerOptions' shard-count field stays
# declared only because the perfbench workloads set it, so outside
# perfbench/ its declaration in src/reach/reach_server.h is the one place
# the name may appear. (The bracket keeps this script from matching
# itself.)
shard_count_uses=$(grep -rnw 'num[_]shards' \
    src bench examples tools tests CMakeLists.txt \
    | grep -vx 'src/reach/reach_server.h:[0-9]*:  int32_t num[_]shards = 4;' \
    || true)
if [[ -n "${shard_count_uses}" ]]; then
  echo "error: the ignored ReachServerOptions shard count is used:"
  echo "${shard_count_uses}"
  exit 1
fi

# --- Dead-option lint: ReachIndexOptions' O'Reach observation switch and
# its training traffic are read by nothing. They stay declared only
# because the perfbench `serve` workload sets them, so outside perfbench/
# their declaration lines in src/reach/reach_index.h are the one place the
# names may appear. (The brackets keep this script from matching itself.)
observation_uses=$(grep -rnwE 'o[r]each|o[r]each_traffic' \
    src bench examples tools tests CMakeLists.txt \
    | grep -vxE 'src/reach/reach_index\.h:[0-9]+:  (bool o[r]each = false;|std::vector<std::pair<NodeId, NodeId>> o[r]each_traffic;)' \
    || true)
if [[ -n "${observation_uses}" ]]; then
  echo "error: the ignored ReachIndexOptions observation options are used:"
  echo "${observation_uses}"
  exit 1
fi

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

# --- Sanitized stress sweep: every algorithm x replacement policy on 50
# randomized (graph, tiny pool, query) configurations, differentially
# checked against the reference closure with the buffer-pool audits armed
# (Debug keeps the TCDB_DCHECK phase-boundary audits on).
SAN_DIR="${BUILD_DIR}-asan"
cmake -B "$SAN_DIR" -S . -DCMAKE_BUILD_TYPE=Debug \
    -DTCDB_SANITIZE=address,undefined
cmake --build "$SAN_DIR" -j "$(nproc)" --target tcdb_cli
"$SAN_DIR"/tools/tcdb_cli stress --seeds 50 --base-seed 1

# --- Sanitized storage layer: the buffer pool (dense per-file page table,
# frame-indexed unpin, candidate-span victim picks under all five
# policies), the B+-tree and the relation lookups over it (including the
# descent-failure regression), and the one-pointer Status/Result, under
# ASan+UBSan so a stale frame index, an out-of-range page-table slot or a
# double-owned error state is a report, not a silent miscount.
cmake --build "$SAN_DIR" -j "$(nproc)" --target buffer_model_test \
    buffer_manager_test bplus_tree_test relation_test util_test
"$SAN_DIR"/tests/buffer_model_test
"$SAN_DIR"/tests/buffer_manager_test
"$SAN_DIR"/tests/bplus_tree_test
"$SAN_DIR"/tests/relation_test
"$SAN_DIR"/tests/util_test

# --- Sanitized tree decoder: FlatTree and the SPN/JKB tree codec under
# ASan+UBSan, including the mutational decode test that feeds the decoder
# bit-flipped, truncated, inflated and spliced encodings (each must fail
# with a Status or decode to a tree that re-encodes byte for byte).
cmake --build "$SAN_DIR" -j "$(nproc)" --target tree_codec_test
"$SAN_DIR"/tests/tree_codec_test

# --- Sanitized bit-matrix kernel differential: the scalar / uint64 /
# AVX2 backends compared bit-for-bit on every graph shape, under
# ASan+UBSan so a tail-word overrun or misaligned vector load is an
# error, not a silent wrong bit. Runs the full differential twice — once
# with the AVX2 path eligible (the default build above) and once in a
# uint64-only tree (-DTCDB_AVX2=OFF) so the portable path is exercised
# even on AVX2 hardware.
cmake --build "$SAN_DIR" -j "$(nproc)" --target bit_matrix_test
"$SAN_DIR"/tests/bit_matrix_test
NOAVX_DIR="${BUILD_DIR}-asan-noavx2"
cmake -B "$NOAVX_DIR" -S . -DCMAKE_BUILD_TYPE=Debug \
    -DTCDB_SANITIZE=address,undefined -DTCDB_AVX2=OFF
cmake --build "$NOAVX_DIR" -j "$(nproc)" --target bit_matrix_test
"$NOAVX_DIR"/tests/bit_matrix_test

# --- Sanitized mutation differential: 50 randomized mixed
# insert/delete/query traces through the full dynamic stack
# (MutationLog -> DynamicReachService -> IndexRebuilder), every answer
# checked against a reference closure at that epoch AND at every epoch
# boundary (validate-every defaults to 1). The printed answer digest must
# equal the committed one: the same traces once ran with the incremental
# tier forced off (today's num_pivots = 0) and printed this digest too, so
# a match proves the tier, and any later change to the serving ladder,
# changes only which rule (and how much CPU) answers, never what is
# answered.
expected_digest='answer digest 8a7871edb0d422ce'
mutate_out=$("$SAN_DIR"/tools/tcdb_cli mutate-stress --seeds 50 --base-seed 1)
echo "${mutate_out}"
mutate_digest=$(grep '^answer digest' <<<"${mutate_out}")
if [[ "${mutate_digest}" != "${expected_digest}" ]]; then
  echo "error: mutate-stress answers changed" \
       "(got '${mutate_digest}', expected '${expected_digest}')"
  exit 1
fi

# --- Sanitized serving ladder: the search core's root words and search
# against the BFS reference closure, its rule attribution and the
# core-image decoder fed inflated, overflowing, truncated and
# previous-layout images (reach_index_test), the dynamic service's
# snapshot / incremental /
# live-BFS rungs and their stats (dynamic_reach_test,
# incremental_reach_test), the tick-exact per-rule stats of a
# one-thread server against a direct service (determinism_test), and the
# chain core's prefetch pipeline against one Decide per pair
# (decide_batch_test), and the huge-page allocator under the chain labels
# (huge_page_allocator_test: threshold crossings, a restored 10^5 index,
# an overrun into the poisoned 2 MiB rounding slack), under ASan+UBSan so
# a stale scratch slot, an out-of-range rule index, a lookahead index past
# the batch or a write past a huge array is a report, not a miscount.
cmake --build "$SAN_DIR" -j "$(nproc)" --target reach_index_test \
    dynamic_reach_test incremental_reach_test determinism_test \
    decide_batch_test huge_page_allocator_test
"$SAN_DIR"/tests/reach_index_test
"$SAN_DIR"/tests/dynamic_reach_test
"$SAN_DIR"/tests/incremental_reach_test
"$SAN_DIR"/tests/determinism_test
"$SAN_DIR"/tests/decide_batch_test
"$SAN_DIR"/tests/huge_page_allocator_test

# --- Sanitized crash differential: 50 randomized kill-and-recover runs
# through the durable stack (WAL + checkpoints on a fault-injecting
# filesystem) — every recovered state differentially checked against the
# reference graph at the crash point, with torn-write repair exercised.
"$SAN_DIR"/tools/tcdb_cli crash-stress --seeds 50 --base-seed 1

# --- Sanitized failover differential: 50 randomized primary-kill runs
# through the replication stack (WAL shipping to live followers, some
# attached mid-trace, primary on a fault-injecting filesystem) — after
# every kill a follower is promoted and checked arc-for-arc and
# reachability-for-reachability against the reference graph, then serves
# a post-failover write trace of its own.
"$SAN_DIR"/tools/tcdb_cli failover-stress --seeds 50 --base-seed 1

# --- Sanitized scale smoke: a 10^5-node ChainIndex build plus sampled
# differential against the exact BFS cones (--check), once on a pure DAG
# family and once through the SCC-condensation front, so an index-side
# overflow or uninitialized frontier row at real scale trips the
# sanitizers rather than a lucky assertion.
"$SAN_DIR"/tools/tcdb_cli scale-bench --family layered --n 100000 \
    --width 64 --degree 4 --queries 50000 --seed 1 --check 4
"$SAN_DIR"/tools/tcdb_cli scale-bench --family scale-free --n 100000 \
    --locality 64 --degree 4 --cyclic 500 --queries 50000 --seed 1 \
    --check 4

# --- Sanitized budget refusal: Kronecker at 10^5 nodes is far too wide
# for the default chain frontier budget (1 KiB per node). The build must
# stop early with ResourceExhausted — exit 1 and that message, not an
# abort (it used to die with std::bad_alloc, exit 134) — and well within
# a wall-time bound (the generator alone takes about a second here).
kron_code=0
SECONDS=0
kron_err=$("$SAN_DIR"/tools/tcdb_cli scale-bench --family kronecker \
    --n 100000 --seed 1 2>&1 >/dev/null) || kron_code=$?
kron_seconds=${SECONDS}
echo "kronecker n=10^5: exit ${kron_code} in ${kron_seconds}s: ${kron_err}"
if [[ "${kron_code}" != 1 || "${kron_err}" != *ResourceExhausted* ]]; then
  echo "error: kronecker scale-bench did not refuse cleanly" \
       "(exit ${kron_code})"
  exit 1
fi
if (( kron_seconds > 20 )); then
  echo "error: kronecker scale-bench took ${kron_seconds}s to refuse" \
       "(bound 20s)"
  exit 1
fi

# --- Sanitized search-core differential: the CLI's workload-bench --check
# smoke serves an adversarial mix mined against the search core's words,
# and a mixed one, each on one search core, and requires every sampled
# answer to match a DFS reference — under ASan+UBSan so a stale scratch
# slot or an off-by-one in the reverse CSR is a crash, not a wrong "no".
"$SAN_DIR"/tools/tcdb_cli workload-bench gen:800,5,160,3 \
    --workload adversarial --queries 5000 --seed 1 --check 800
"$SAN_DIR"/tools/tcdb_cli workload-bench gen:600,4,120,9 \
    --workload mixed --queries 5000 --seed 2 --check 600

# --- Concurrency tier under ThreadSanitizer: the multi-threaded
# ReachServer tests, the epoch-swap-under-load tests, the
# checkpoint-under-rebuild persistence test, the follower-catchup
# replication tests, the chain-backend ReachServer differential
# (concurrent clients over a kChain core, scale_backend_test), the
# search-core serving tests (oreach_server_test — the core is shared
# read-only by every client's lane while each lane searches on its own
# scratch, so a missing happens-before is a TSan report here), and the
# CLI smokes that drive client/rebuilder/apply
# threads rerun in a separate TSan tree — TSan cannot share a build with
# ASan, hence the third directory.
TSAN_DIR="${BUILD_DIR}-tsan"
cmake -B "$TSAN_DIR" -S . -DCMAKE_BUILD_TYPE=Debug -DTCDB_TSAN=ON
cmake --build "$TSAN_DIR" -j "$(nproc)" \
    --target reach_server_test snapshot_swap_test incremental_swap_test \
    persist_serving_test replica_test scale_backend_test \
    oreach_server_test tcdb_cli
ctest --test-dir "$TSAN_DIR" --output-on-failure -L concurrency
