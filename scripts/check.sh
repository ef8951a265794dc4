#!/usr/bin/env bash
# Tier-1 hardening driver: builds and runs the test suite under ASan+UBSan,
# then rebuilds under TSan and runs the concurrency-sensitive tests
# (thread pool, observability, streaming, the core steps' walks), then
# re-runs the suite once per src/simd kernel variant
# (PARPARAW_FORCE_KERNEL) so every dispatch level —
# not just the one this machine auto-selects — gets sanitizer coverage.
# Usage:
#
#   scripts/check.sh            # asan+ubsan suite, tsan subset, kernel sweep
#   scripts/check.sh asan       # just the address+undefined pass
#   scripts/check.sh tsan       # just the thread-sanitizer pass
#   scripts/check.sh kernels    # just the per-kernel-variant sweep
#   scripts/check.sh faults     # fault-injection: chaos/robustness suites
#                               # under ASan+UBSan across a fixed seed matrix
#   scripts/check.sh pipeline   # pipelined-executor differential suite
#                               # and the entry points on it (exec/Reader/
#                               # streaming/loader/dialects/robust/chaos)
#                               # plus the executor-trace tests under TSan
#   scripts/check.sh transpose  # full suite per TransposeMode
#                               # (PARPARAW_TRANSPOSE_MODE) plus the
#                               # symbol-sort vs field-gather differential
#                               # harness and the field walk's oracle
#                               # sweep, under ASan+UBSan
#   scripts/check.sh dialects   # dialect compiler suite (equivalence
#                               # proofs, minimiser properties, widened
#                               # generated-dialect differential sweeps,
#                               # chaos) under ASan+UBSan
#   scripts/check.sh tuning     # planner: the one resolution of every auto
#                               # sentinel (plan::PlanParse), its
#                               # determinism and decision suites, Tuning
#                               # validation, Reader Explain/WithTuning,
#                               # the chaos sweep, and the planner axes of
#                               # both differential harnesses (default
#                               # options against pinned 31-byte chunks)
#                               # under ASan+UBSan; per-request planning
#                               # against the daemon's shared state under
#                               # TSan; then the --planner ablation bench
#                               # in the regular build tree (its build type
#                               # untouched) emitting BENCH_autotune.json
#   scripts/check.sh scaling    # morsel scheduler: forward-progress
#                               # regressions (nested ParallelFor,
#                               # concurrent decoupled-lookback scans on
#                               # an occupied pool), task-group scoping,
#                               # steal stress, and both differential
#                               # harnesses under TSan, plus the chaos
#                               # sweep with sched.submit/sched.steal
#                               # schedule-perturbation failpoints armed
#   scripts/check.sh serve      # parparawd daemon: protocol conformance,
#                               # 10k-frame fuzz (malformed + bit-flipped
#                               # checksummed frames), request-lifecycle
#                               # suites (deadlines/drain/retry/timeouts)
#                               # and a SIGTERM drain smoke of the real
#                               # binary under ASan+UBSan, then the
#                               # multi-client loopback + restart soak
#                               # under TSan, plus the chaos sweep with
#                               # serve.* failpoints in its schedule space
#
# Build trees land in build-asan/ and build-tsan/ next to the normal
# build/ so a sanitizer run never invalidates the regular build cache.
set -euo pipefail

cd "$(dirname "$0")/.."

MODE="${1:-all}"
JOBS="$(nproc 2>/dev/null || echo 2)"

run_asan() {
  echo "=== ASan+UBSan: configure ==="
  cmake -B build-asan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DPARPARAW_SANITIZE=address,undefined
  echo "=== ASan+UBSan: build ==="
  cmake --build build-asan -j "${JOBS}"
  echo "=== ASan+UBSan: full test suite ==="
  ASAN_OPTIONS=detect_leaks=1:strict_string_checks=1 \
  UBSAN_OPTIONS=print_stacktrace=1:halt_on_error=1 \
    ctest --test-dir build-asan --output-on-failure -j "${JOBS}"
}

run_tsan() {
  echo "=== TSan: configure ==="
  cmake -B build-tsan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DPARPARAW_SANITIZE=thread
  echo "=== TSan: build ==="
  cmake --build build-tsan -j "${JOBS}"
  # The concurrency surface: the worker pool, the lock-free metric shards
  # and tracer, and the morsel-driven ingestion executor (which the
  # streaming parser runs on) with its admission controller. The
  # ObsIntegration suite also checks the cross-thread span invariant: an
  # ingest whose morsels hop across workers records no negative span
  # depth, and every nested span lies inside its parent on its own thread.
  # SymbolIndex, SimdDifferential, SimdSpeculation and WriteOnce drive the
  # core steps, whose chunks share the bitmap indexes' edge words (the
  # word-ownership rule at SymbolIndex, core/pipeline_state.h): those words
  # must only ever be touched through atomic_ref. SimdSpeculation runs the
  # speculated chunks, whose kernels write their suffix's masks while their
  # neighbours' walks merge into the shared words, and whose wrong guesses
  # the bitmap step rewrites. TransposeDifferential drives the field
  # gather on pools of 1-8 workers, whose tiles write disjoint column
  # slots, offsets and string bytes concurrently, clear NULLs in shared
  # validity words atomically, and read the shared mask words; Validate
  # holds the option checks that keep the walk's copies finite.
  # Of the two sanitizer builds, this one takes ScratchAllocator's mapping
  # path (core/pipeline_state.h): scratch buffers of 2 MiB and up come
  # from their own huge-page mappings, poisoned with 0xA5 like the smaller
  # std::allocator ones. ScratchAllocator checks the mapping path itself,
  # and WriteOnce's large case parses through mapped scratch.
  # Pushdown runs StagedParse::Select, which a query's sort morsel runs
  # next to the following partition's scan morsel; its phase 2 reads the
  # column counts and open-field carries that phase 1's count pass wrote.
  # FieldWalk drives the field walk over wanted columns, which the tag
  # step's tally and the gather run in ParallelForEach tiles over the
  # shared mask words.
  echo "=== TSan: concurrency-sensitive tests ==="
  TSAN_OPTIONS=halt_on_error=1 \
    ctest --test-dir build-tsan --output-on-failure -j "${JOBS}" \
      -R 'ThreadPool|ParallelFor|Scheduler|TaskGroup|Metrics|Tracer|ObsIntegration|Streaming|Exec|Reader|SymbolIndex|SimdDifferential|SimdSpeculation|WriteOnce|TransposeDifferential|ScratchAllocator|Validate|Pushdown|FieldWalk'
}

run_scaling() {
  echo "=== scaling: configure (TSan) ==="
  cmake -B build-tsan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DPARPARAW_SANITIZE=thread
  echo "=== scaling: build ==="
  cmake --build build-tsan -j "${JOBS}"
  # The work-stealing scheduler's whole surface under the thread
  # sanitizer: the forward-progress regressions (nested ParallelFor
  # deadlock, decoupled-lookback scan livelock on an occupied shared
  # pool), task-group scoping, the steal/injection stress suites, the
  # scan/sort primitives that ride on the pool, and both differential
  # harnesses — morsel output must stay bit-identical to the serial
  # reference no matter the schedule.
  echo "=== scaling: scheduler + scan stress + differential under TSan ==="
  TSAN_OPTIONS=halt_on_error=1 \
    ctest --test-dir build-tsan --output-on-failure -j "${JOBS}" \
      -R 'Scheduler|TaskGroup|ThreadPool|ParallelFor|Scan|RadixSort|Exec|Reader|SimdDifferential|TransposeDifferential'
  # The chaos sweep with the scheduler's schedule-perturbation sites
  # (sched.submit -> inline execution, sched.steal -> skipped steal) in
  # the armed matrix: perturbing the schedule must never change output.
  echo "=== scaling: chaos sweep with sched.* perturbation under TSan ==="
  PARPARAW_CHAOS_SCHEDULES=400 \
  TSAN_OPTIONS=halt_on_error=1 \
    ctest --test-dir build-tsan --output-on-failure -j "${JOBS}" \
      -R 'Chaos'
}

run_pipeline() {
  echo "=== pipeline: configure (TSan) ==="
  cmake -B build-tsan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DPARPARAW_SANITIZE=thread
  echo "=== pipeline: build ==="
  cmake --build build-tsan -j "${JOBS}"
  # The executor's differential suite (bit-identical to one monolithic
  # Parser::Parse across kernels and error policies), every entry point
  # that runs on the executor (Reader, the streaming suite, BulkLoader, the
  # robustness suite's budget and fault cases), the dialects over the
  # SIMD register budget (DialectEquivalence: their sequential
  # entry-state walk in each scan morsel, then chunk-parallel steps,
  # across partition sizes and all four error policies), the pushdown
  # suite (a query's select stage runs inside sort morsels), and the chaos
  # sweep — whose schedule space includes faults at every morsel
  # hand-off — all under the thread sanitizer, since the executor is the
  # most schedule-sensitive code in the repo. The Chaos filter also runs
  # ChaosTest.BudgetedIngestFaultsFailCleanOrMatchFaultFree: a budgeted
  # ingest, small partitions with four in flight, under each I/O,
  # executor, allocation and scheduler fault. ObsIntegration adds the
  # executor-trace tests: one interval per stage across every sink, and
  # spans that nest on their own thread.
  echo "=== pipeline: executor differential + chaos under TSan ==="
  PARPARAW_CHAOS_SCHEDULES=400 \
  TSAN_OPTIONS=halt_on_error=1 \
    ctest --test-dir build-tsan --output-on-failure -j "${JOBS}" \
      -R 'Exec|Reader|Validate|Chaos|Streaming|BulkLoader|DialectEquivalence|Robust|ObsIntegration|Pushdown'
}

run_kernels() {
  echo "=== kernel sweep: configure ==="
  cmake -B build-asan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DPARPARAW_SANITIZE=address,undefined
  echo "=== kernel sweep: build ==="
  cmake --build build-asan -j "${JOBS}"
  # scalar = the reference pipeline; swar = the portable fallback every
  # build has; simd = the best vector level this CPU offers (degrades to
  # swar when none). The full suite runs per variant, then the
  # differential harness once more by itself so its cross-level sweep is
  # exercised with the env override active too. Sanitizer builds poison
  # fresh parse scratch (ScratchAllocator, core/pipeline_state.h), so an
  # element no pass wrote breaks these bit-identity tests; WriteOnce also
  # reruns the steps on a state left full of a larger parse's junk, and
  # SymbolIndex checks every mask bit against a sequential DFA walk. This
  # ASan build serves every scratch buffer from std::allocator, large ones
  # too, so a redzone guards each of them against an overrun; the TSan
  # pass covers the huge-page mapping path that other builds take.
  for kernel in scalar swar simd; do
    echo "=== kernel sweep: full suite, PARPARAW_FORCE_KERNEL=${kernel} ==="
    PARPARAW_FORCE_KERNEL="${kernel}" \
    ASAN_OPTIONS=detect_leaks=1:strict_string_checks=1 \
    UBSAN_OPTIONS=print_stacktrace=1:halt_on_error=1 \
      ctest --test-dir build-asan --output-on-failure -j "${JOBS}"
    echo "=== kernel sweep: differential tests, PARPARAW_FORCE_KERNEL=${kernel} ==="
    PARPARAW_FORCE_KERNEL="${kernel}" \
    ASAN_OPTIONS=detect_leaks=1:strict_string_checks=1 \
    UBSAN_OPTIONS=print_stacktrace=1:halt_on_error=1 \
      ctest --test-dir build-asan --output-on-failure -j "${JOBS}" \
        -R 'SimdDifferential|SimdSpeculation|Utf8Boundary|WriteOnce|SymbolIndex'
  done
}

run_faults() {
  echo "=== faults: configure ==="
  cmake -B build-asan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DPARPARAW_SANITIZE=address,undefined
  echo "=== faults: build ==="
  cmake --build build-asan -j "${JOBS}"
  # The robustness surface (see docs/robustness.md): failpoint semantics,
  # quarantine capture, IPC corruption sweeps, I/O retry — then the
  # chaos harness over a fixed matrix of seed bases so regressions replay
  # deterministically. Each base shifts the whole schedule space; together
  # with the in-test default this covers >4000 distinct seeded schedules.
  # No seeded schedule runs under a memory budget, so the Chaos filter's
  # ChaosTest.BudgetedIngestFaultsFailCleanOrMatchFaultFree arms each I/O,
  # executor, allocation and scheduler failpoint against a budgeted
  # ingest (small partitions, four in flight) as well.
  for seed_base in 20260806 1 981276341; do
    echo "=== faults: chaos/robustness suites, seed base ${seed_base} ==="
    PARPARAW_CHAOS_SEED_BASE="${seed_base}" \
    PARPARAW_CHAOS_SCHEDULES=1200 \
    ASAN_OPTIONS=detect_leaks=1:strict_string_checks=1 \
    UBSAN_OPTIONS=print_stacktrace=1:halt_on_error=1 \
      ctest --test-dir build-asan --output-on-failure -j "${JOBS}" \
        -R 'Chaos|Robust|Failpoint|Quarantine|Ipc'
  done
}

run_transpose() {
  echo "=== transpose sweep: configure ==="
  cmake -B build-asan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DPARPARAW_SANITIZE=address,undefined
  echo "=== transpose sweep: build ==="
  cmake --build build-asan -j "${JOBS}"
  # The full suite once per transposition implementation: the env override
  # flips what TransposeMode::kAuto resolves to, so every test that does
  # not pin a mode runs both the field-gather default (which writes the
  # columns in its partition walk and builds no CSS) and the paper's
  # symbol-sort path (CSS, then convert). Both modes convert every typed
  # value through the one inline value rule (ParseSlot/ConvertFixed,
  # core/column_plan.h). Then the dedicated differential harness (10k+
  # seeded inputs comparing the two bit for bit, typed schemas included)
  # with the default resolution, WriteOnce, whose reused-state parse must
  # match a fresh one in both modes while fresh scratch storage is
  # poisoned, SymbolIndex, the mask bits both modes read, Validate, the
  # option checks both modes rely on, ConvertOracle, which holds that
  # rule's converters to the out-of-line ones they replaced, verdict and
  # value bits, and FieldWalk, which holds the field walk over any set of
  # wanted columns (the tally's string columns, the gather's kept ones) to
  # the one-step-per-field oracle, every span member and record end.
  for mode in field_gather symbol_sort; do
    echo "=== transpose sweep: full suite, PARPARAW_TRANSPOSE_MODE=${mode} ==="
    PARPARAW_TRANSPOSE_MODE="${mode}" \
    ASAN_OPTIONS=detect_leaks=1:strict_string_checks=1 \
    UBSAN_OPTIONS=print_stacktrace=1:halt_on_error=1 \
      ctest --test-dir build-asan --output-on-failure -j "${JOBS}"
  done
  echo "=== transpose sweep: differential harness ==="
  ASAN_OPTIONS=detect_leaks=1:strict_string_checks=1 \
  UBSAN_OPTIONS=print_stacktrace=1:halt_on_error=1 \
    ctest --test-dir build-asan --output-on-failure -j "${JOBS}" \
      -R 'TransposeDifferential|FieldGather|CssIndex|Tagging|WriteOnce|SymbolIndex|Validate|ConvertOracle|FieldWalk'
}

run_dialects() {
  echo "=== dialects: configure ==="
  cmake -B build-asan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DPARPARAW_SANITIZE=address,undefined
  echo "=== dialects: build ==="
  cmake --build build-asan -j "${JOBS}"
  # The dialect compiler surface (see docs/dialects.md): the built-in-twin
  # equivalence proofs and minimiser property sweeps, the generated-dialect
  # axes of the SIMD and transpose differential harnesses with the seed
  # count raised well past the in-test default, and the chaos schedule
  # space that now includes dialect.compile/dialect.minimise faults — all
  # under ASan+UBSan, since the compiler allocates per-spec tables the
  # regular suite only exercises for the built-ins.
  echo "=== dialects: equivalence, minimiser, differential, chaos ==="
  PARPARAW_DIALECT_SEEDS=256 \
  ASAN_OPTIONS=detect_leaks=1:strict_string_checks=1 \
  UBSAN_OPTIONS=print_stacktrace=1:halt_on_error=1 \
    ctest --test-dir build-asan --output-on-failure -j "${JOBS}" \
      -R 'Dialect|SimdDifferential|TransposeDifferential|Chaos|Sniffer'
}

run_tuning() {
  echo "=== tuning: configure (ASan+UBSan) ==="
  cmake -B build-asan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DPARPARAW_SANITIZE=address,undefined
  echo "=== tuning: build ==="
  cmake --build build-asan -j "${JOBS}"
  # The planner surface (see docs/tuning.md): plan::PlanParse, the one
  # place every auto sentinel resolves, from the DFA, the pins and the
  # stream's length; the Tuning env vocabulary, Validate(),
  # Reader::WithTuning/Explain, the chaos schedule space, and the planner
  # axes of both differential harnesses (the default options must be
  # bit-identical to the same options with 31-byte chunks pinned) — under
  # ASan+UBSan, since a planned chunk size moves every chunk boundary the
  # steps index by.
  echo "=== tuning: planner suites + differential harnesses ==="
  ASAN_OPTIONS=detect_leaks=1:strict_string_checks=1 \
  UBSAN_OPTIONS=print_stacktrace=1:halt_on_error=1 \
    ctest --test-dir build-asan --output-on-failure -j "${JOBS}" \
      -R 'Planner|Validate|Reader|Tuning|Chaos|SimdDifferential|TransposeDifferential'
  # A host without a vector ISA plans the portable SWAR level; the kernel
  # rule is checked there too, not only on this host's best level.
  echo "=== tuning: planner suites, PARPARAW_DISABLE_SIMD=1 ==="
  PARPARAW_DISABLE_SIMD=1 \
  ASAN_OPTIONS=detect_leaks=1:strict_string_checks=1 \
  UBSAN_OPTIONS=print_stacktrace=1:halt_on_error=1 \
    ctest --test-dir build-asan --output-on-failure -j "${JOBS}" \
      -R 'Planner|SimdDifferential'
  echo "=== tuning: configure (TSan) ==="
  cmake -B build-tsan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DPARPARAW_SANITIZE=thread
  echo "=== tuning: build (TSan) ==="
  cmake --build build-tsan -j "${JOBS}"
  # Planning now runs per request inside the daemon and per parse inside
  # the pipelined executor, so the planner's reads of the process-wide
  # kernel dispatch state race-check against concurrent clients here.
  echo "=== tuning: concurrent per-request planning under TSan ==="
  TSAN_OPTIONS=halt_on_error=1 \
    ctest --test-dir build-tsan --output-on-failure -j "${JOBS}" \
      -R 'Planner|Reader|Exec|ServeConcurrency|ServeConformance'
  # The ablation bench runs in the regular (unsanitized) tree, at the build
  # type the tier-1 build gave it (Release by default; overriding it here
  # would stay in the CMake cache for the next tier-1 build). The planned
  # configuration must land within 5% of the best other configuration and
  # not lose to the worst one. The bench itself retries a corpus whose
  # measurement hits a host throughput dip, so a FAIL exit here is a real
  # planner regression.
  echo "=== tuning: planner ablation bench (BENCH_autotune.json) ==="
  cmake -B build -S .
  cmake --build build -j "${JOBS}" --target bench_ablation_primitives
  ./build/bench/bench_ablation_primitives --planner \
    --json-out=BENCH_autotune.json \
    --commit="$(git describe --always --dirty 2>/dev/null)"
}

run_serve() {
  echo "=== serve: configure (ASan+UBSan) ==="
  cmake -B build-asan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DPARPARAW_SANITIZE=address,undefined
  echo "=== serve: build ==="
  cmake --build build-asan -j "${JOBS}"
  # The daemon's memory-safety surface: every protocol encoder/decoder,
  # the 10k-seeded-malformed-frame fuzz plus the 10k bit-flipped
  # checksummed-frame fuzz (CRC-32C wire integrity), the request
  # lifecycle (deadlines, drain, retry, connect/IO timeouts), the
  # admission-controller edges, the robust socket I/O helpers with their
  # serve.* failpoints, the workload generators, and the chaos sweep
  # (whose schedule space includes serve.deadline/serve.drain/
  # serve.corrupt faults and a checksummed loopback daemon entry point).
  echo "=== serve: conformance + fuzz + lifecycle under ASan+UBSan ==="
  ASAN_OPTIONS=detect_leaks=1:strict_string_checks=1 \
  UBSAN_OPTIONS=print_stacktrace=1:halt_on_error=1 \
    ctest --test-dir build-asan --output-on-failure -j "${JOBS}" \
      -R 'ServeProtocol|ServeConformance|ServeFailpoint|ServeFuzz|RequestStream|Chaos|ServeDeadline|ServeDrain|ServeRetry|ServeTimeout|Admission|Crc32c'
  # Kill-and-restart smoke on the real binary: SIGTERM must drain (let
  # in-flight requests finish, then exit 0 reporting a clean drain), and
  # the ASan/LSan runtime must see no leaks on that exit path.
  echo "=== serve: parparawd SIGTERM drain smoke ==="
  local log="build-asan/parparawd-drain-smoke.log"
  ASAN_OPTIONS=detect_leaks=1 \
    ./build-asan/src/parparawd --port 0 --drain-deadline-ms 2000 \
      >"${log}" 2>&1 &
  local daemon_pid=$!
  for _ in $(seq 1 100); do
    grep -q 'listening on 127\.0\.0\.1:' "${log}" && break
    sleep 0.1
  done
  grep -q 'listening on 127\.0\.0\.1:' "${log}" || {
    echo "parparawd never came up:"; cat "${log}"; return 1; }
  kill -TERM "${daemon_pid}"
  wait "${daemon_pid}" || { echo "parparawd exited non-zero:"; cat "${log}"; return 1; }
  grep -q 'drain clean' "${log}" || {
    echo "parparawd did not drain cleanly:"; cat "${log}"; return 1; }
  echo "=== serve: drain smoke clean ==="
  echo "=== serve: configure (TSan) ==="
  cmake -B build-tsan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DPARPARAW_SANITIZE=thread
  echo "=== serve: build (TSan) ==="
  cmake --build build-tsan -j "${JOBS}"
  # The daemon's schedule-sensitive surface: N concurrent clients mixing
  # ingest/query/disconnect, every request running on the daemon's one
  # executor and its one admission controller, the BUSY shedding paths,
  # graceful drain racing in-flight requests, deadline expiry racing
  # completion, the retrying client's kill-and-restart soak, and clean
  # shutdown (one Cancel() on that executor) with requests in flight. A
  # disconnect is seen at the executor's stage entries, where the
  # daemon's stage hook runs on pool workers, so Exec runs here too: its
  # stage-check test fails one of two concurrent ingests on one executor
  # from its hook. ServeFailpoint drives the one frame reader and writer
  # (serve/protocol.h) on both ends at once, through one-byte writes,
  # short reads, transient read faults and corrupted checksummed frames,
  # while the connection thread sets its checksum flag and in_request as
  # each header arrives. Queries run on the same executor path as
  # parses: their budget-slice and cancel-on-disconnect cases sit in
  # ServeConcurrency, the server-local file query in ServeConformance and
  # the mid-ingest expiry in ServeDeadline, so the filter below already
  # covers them.
  echo "=== serve: concurrency soak under TSan ==="
  TSAN_OPTIONS=halt_on_error=1 \
    ctest --test-dir build-tsan --output-on-failure -j "${JOBS}" \
      -R 'ServeConcurrency|ServeConformance|ServeFailpoint|ServeDeadline|ServeDrain|ServeRetry|Admission|Exec'
}

case "${MODE}" in
  asan) run_asan ;;
  tsan) run_tsan ;;
  kernels) run_kernels ;;
  faults) run_faults ;;
  pipeline) run_pipeline ;;
  scaling) run_scaling ;;
  transpose) run_transpose ;;
  dialects) run_dialects ;;
  tuning) run_tuning ;;
  serve) run_serve ;;
  all)
    run_asan
    run_tsan
    run_kernels
    run_faults
    run_pipeline
    run_scaling
    run_transpose
    run_dialects
    run_tuning
    run_serve
    ;;
  *)
    echo "usage: $0 [asan|tsan|kernels|faults|pipeline|scaling|transpose|dialects|tuning|serve|all]" >&2
    exit 2
    ;;
esac

echo "=== all sanitizer passes clean ==="
