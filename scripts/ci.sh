#!/usr/bin/env bash
# Tiered CI driver (.github/workflows/ci.yml runs both tiers; either runs
# standalone on a laptop).
#
#   scripts/ci.sh fast    blocking tier: build, gofmt, go vet, livenas-vet
#                         (whole module, no flags, under 4 s), short tests,
#                         the benchmark module's vet + tests, the int8 and
#                         codec+vidgen differential tests, the wire format
#                         pin, the playlist format pin (with the event-heap
#                         oracle and WireSize = frame length), the link
#                         model pin (netem.Link and SimConn against their
#                         seed oracles), the sr
#                         inference differentials and the arena ownership
#                         contract by name, parallel sweep smoke (one small
#                         figure sweep at -parallel 4)
#   scripts/ci.sh full    merge tier: go vet (stdlib asmdecl/copylocks — the
#                         asm stubs and purego twins are its territory),
#                         the same livenas-vet and benchmark-module steps,
#                         full tests, race tier (includes internal/sweep
#                         and internal/fleet), fuzz smoke (wire, playlist,
#                         codec, conv; FUZZTIME, default 10s, 0 skips). No timing
#                         is gated here: BENCHMARK.json is the one
#                         performance instrument.
#
# Extended knobs (the nightly workflow uses these):
#   FLEET_SOAK_STREAMS=N  adds a fleet soak step to the full tier: N
#                         concurrent streamers through the admission plan
#                         and sweep execution under -race
#   CI_ARTIFACTS=dir      collects the step table, a telemetry run
#                         summary and pprof profiles into dir for upload
#
# Each step is timed; the table goes to stdout and, when running under
# GitHub Actions, to the job summary ($GITHUB_STEP_SUMMARY). When a step
# fails, the remaining steps are recorded as "skipped" and the script exits
# with the FIRST failing step's rc (a finish()/set -e interaction used to
# let a later step's rc, or a multi-command step's last rc, mask it).
set -euo pipefail
cd "$(dirname "$0")/.."

TIER="${1:-fast}"
case "$TIER" in fast | full) ;; *)
    echo "usage: scripts/ci.sh [fast|full]" >&2
    exit 2
    ;;
esac

if [[ -n "${CI_ARTIFACTS:-}" ]]; then
    mkdir -p "$CI_ARTIFACTS"
fi

STEP_NAMES=()
STEP_SECS=()
STEP_RCS=()
# First failure wins: step() records it here and turns every later step
# into an explicit "skipped" row instead of running it.
FAIL_RC=0
FAIL_STEP=""

finish() {
    local rc=$?
    # The table must report the first failing step's rc even if the shell
    # exited through a later command (or through the final exit 0 path).
    if [[ $FAIL_RC -ne 0 ]]; then rc=$FAIL_RC; fi
    {
        echo
        echo "### ci.sh $TIER tier"
        echo
        echo "| step | seconds | result |"
        echo "| --- | ---: | --- |"
        local i
        for i in "${!STEP_NAMES[@]}"; do
            echo "| ${STEP_NAMES[$i]} | ${STEP_SECS[$i]} | ${STEP_RCS[$i]} |"
        done
        if [[ $FAIL_RC -ne 0 ]]; then
            echo
            echo "first failure: ${FAIL_STEP} (rc=${FAIL_RC})"
        fi
    } | tee -a "${GITHUB_STEP_SUMMARY:-/dev/null}" |
        tee -a "${CI_ARTIFACTS:+$CI_ARTIFACTS/step_table.md}" 2>/dev/null ||
        true
    exit "$rc"
}
trap finish EXIT

# step NAME CMD...: runs CMD under timing. Never returns nonzero — set -e
# must not abort the driver mid-table — but records the first failure in
# FAIL_RC/FAIL_STEP and skips every subsequent step explicitly.
step() {
    local name="$1"
    shift
    if [[ $FAIL_RC -ne 0 ]]; then
        STEP_NAMES+=("$name")
        STEP_SECS+=("-")
        STEP_RCS+=("skipped")
        return 0
    fi
    echo "== $name"
    local t0 t1 rc=0
    t0=$(date +%s)
    "$@" || rc=$?
    t1=$(date +%s)
    STEP_NAMES+=("$name")
    STEP_SECS+=("$((t1 - t0))")
    if [[ $rc -eq 0 ]]; then
        STEP_RCS+=("ok")
    else
        STEP_RCS+=("FAIL($rc)")
        FAIL_RC=$rc
        FAIL_STEP="$name"
    fi
    return 0
}

gofmt_clean() {
    local out
    out="$(gofmt -l .)"
    if [[ -n "$out" ]]; then
        echo "gofmt: needs formatting:" >&2
        echo "$out" >&2
        return 1
    fi
}

# benchmark/ is its own module importing internal/*: an API change there
# must break this step, not the pipeline's A/B run. Chained with && so the
# rc is the first failing command's (bash suppresses set -e inside a
# function invoked in a tested context).
benchmark_module() {
    (cd benchmark && go vet ./... && go test ./...)
}

# pin_tests PKG NAME...: runs the named tests of one package. -run matches
# what exists, so a renamed test would pass by not running: each name must
# report PASS.
pin_tests() {
    local pkg="$1"
    shift
    local out t
    out="$(go test -count=1 -v -run "^($(
        IFS='|'
        echo "$*"
    ))\$" "$pkg")" || {
        echo "$out"
        return 1
    }
    for t in "$@"; do
        grep -q -- "^--- PASS: $t " <<<"$out" || {
            echo "pin_tests $pkg: $t did not run" >&2
            return 1
        }
    done
}

# The inference forward's bit-identity contract (DESIGN.md "Inference
# forward"): each rewritten stage against the oracle kept in its ref_test.go,
# the bordered block read through its tap tables (flipped included, f32 and
# int16) against the explicit im2col panel it replaced, the narrow and the
# installed wide f32 tile set (offset tables, relu store) against a plain
# GEMM over that panel, the vector requant on misaligned rows, and the int8
# paths on odd frame sizes with and without it.
sr_inference_pin() {
    pin_tests ./internal/sr TestSuperResolveMatchesRef &&
        pin_tests ./internal/nn TestConvInferMatchesForwardReLU TestConvGEMMMatchesRef \
            TestBorderedBlockMatchesIm2col TestConvKernelVariantsMatch \
            TestRequantReLUVecMatchesGo TestQuantOddFrameSizes &&
        pin_tests ./internal/frame TestResizeBilinearMatchesRef
}

# What simulated edge links are priced by (DESIGN.md "Playlist body"): the
# literal playlist bytes with the hostile-count and allocation ceilings, the
# typed event heap against the container/heap oracle, and WireSize against
# the frame WriteFrame writes. A slip in any of them moves every virtual-time
# edge result.
playlist_format_pin() {
    pin_tests ./internal/edge TestPlaylistLayoutPinned TestDecodePlaylistHostileCounts TestDecodePlaylistAllocCeiling &&
        pin_tests ./internal/sim TestEventHeapMatchesRef &&
        pin_tests ./internal/wire TestWireSizeMatchesFrame
}

# The one simulated link (DESIGN.md "One simulated link"): netem.Link
# against the seed drop-tail Link and SimConn against the seed drop-oldest
# SimConn, event for event, plus the link releasing what has left it.
link_model_pin() {
    pin_tests ./internal/netem TestLinkMatchesRef TestLinkReleasesPackets &&
        pin_tests ./internal/transport TestSimConnMatchesRef
}

# Nightly-only: record cpu/heap profiles of the serve_hd-geometry inference
# bench for upload, so a serve_hd regression comes with a profile of its
# binding layer.
pprof_profiles() {
    go test -run '^$' -bench 'BenchmarkInferenceServe$' -benchtime 100x \
        -cpuprofile "$CI_ARTIFACTS/cpu.pprof" \
        -memprofile "$CI_ARTIFACTS/mem.pprof" \
        -o "$CI_ARTIFACTS/sr_bench.test" ./internal/sr
}

if [[ "$TIER" == "fast" ]]; then
    step "go build" go build ./...
    step "gofmt" gofmt_clean
    step "go vet" go vet ./...
    step "livenas-vet" go run ./cmd/livenas-vet ./...
    step "go test -short" go test -short ./...
    step "benchmark module" benchmark_module
    # The int8 fast path's correctness contract, run by name so a test
    # rename or build-tag slip can't silently drop it from the blocking
    # tier: kernel-vs-scalar and int8-vs-f32 differentials plus the
    # byte-identical strip/cell determinism pins.
    step "int8 differential + determinism" go test \
        -run 'TestQuant|TestAnytime|TestRequant' ./internal/nn ./internal/sr
    # The codec/vidgen bit-identity contract (DESIGN.md), by name for the same
    # reason: the table-driven hot path against the per-pixel and
    # per-coefficient oracles in their ref_test.go files.
    step "codec+vidgen differential" go test \
        -run 'MatchesRef|MatchesPow' ./internal/codec ./internal/vidgen
    # The wire format contract (DESIGN.md "Wire format v2"), by name for the
    # same reason (pin_tests: each must report PASS): the literal v2 bytes,
    # the v1-gob and 16 MB-claim skips, the canonical-form rejections and the
    # allocation ceilings.
    step "wire format pin" pin_tests ./internal/wire TestFrameLayoutPinned \
        TestFrameV1GobSkipped TestFrameUnknownVersionSkipDoesNotAllocate \
        TestFrameNonCanonicalRejected TestFrameAllocCeilings
    step "playlist format pin" playlist_format_pin
    step "link model pin" link_model_pin
    step "sr inference differential" sr_inference_pin
    # The arena ownership contract (every Get/GetBuf handed back exactly
    # once) has no static check: these three tests carry it alone, for the
    # inference forward, the training chain and the serving path's steady
    # state, so a rename must not drop one.
    step "arena_contract_pin" pin_tests ./internal/sr TestInferenceReturnsEveryTensor \
        TestTrainerReturnsEveryTensor TestSuperResolveAllocCeilings
    # One real figure sweep through the concurrent engine: catches worker /
    # cache / ordering regressions the unit tests can't see end to end.
    step "sweep smoke" go run ./cmd/livenas-bench -fig fig23 -parallel 4 -dur 20s -traces 1
else
    FUZZTIME="${FUZZTIME:-10s}"
    step "go build" go build ./...
    step "go vet" go vet ./...
    step "livenas-vet" go run ./cmd/livenas-vet ./...
    step "go test" go test ./...
    step "benchmark module" benchmark_module
    # internal/nn rides along for the int8/strip-parallel kernel stress;
    # internal/sr's stress set includes the quantized-path churn test;
    # internal/fleet races the registry against mid-epoch teardowns.
    # internal/edge races the origin/relay/viewer actors over both SimConn
    # and real-socket (net.Pipe + queued-writer) paths. internal/vidgen
    # renders one Source from several goroutines (pooled FrameAt scratch).
    step "go test -race" go test -race ./internal/vidgen ./internal/telemetry ./internal/sr ./internal/nn ./internal/wire ./internal/transport ./internal/core ./internal/analysis ./internal/sweep ./internal/fleet ./internal/edge
    if [[ -n "${FLEET_SOAK_STREAMS:-}" ]]; then
        step "fleet soak (N=$FLEET_SOAK_STREAMS, -race)" go test -race \
            -run '^TestFleetSoak$' -v ./internal/fleet
    fi
    if [[ -n "${EDGE_SOAK_VIEWERS:-}" ]]; then
        step "edge soak (N=$EDGE_SOAK_VIEWERS, -race)" go test -race \
            -run '^TestEdgeSoak$' -v ./internal/edge
    fi
    if [[ "$FUZZTIME" != "0" ]]; then
        step "fuzz wire ($FUZZTIME)" go test -run '^$' -fuzz '^FuzzWireRead$' -fuzztime "$FUZZTIME" ./internal/wire
        step "fuzz playlist ($FUZZTIME)" go test -run '^$' -fuzz '^FuzzDecodePlaylist$' -fuzztime "$FUZZTIME" ./internal/edge
        step "fuzz codec ($FUZZTIME)" go test -run '^$' -fuzz '^FuzzBitReader$' -fuzztime "$FUZZTIME" ./internal/codec
        step "fuzz codec decode ($FUZZTIME)" go test -run '^$' -fuzz '^FuzzDecode$' -fuzztime "$FUZZTIME" ./internal/codec
        step "fuzz conv ($FUZZTIME)" go test -run '^$' -fuzz '^FuzzConvForwardGEMM$' -fuzztime "$FUZZTIME" ./internal/nn
    fi
    if [[ -n "${CI_ARTIFACTS:-}" ]]; then
        step "run summary" go run ./cmd/livenas-bench -summary "$CI_ARTIFACTS/run_summary.json"
        step "pprof profiles" pprof_profiles
    fi
fi

if [[ $FAIL_RC -ne 0 ]]; then
    echo "== ci.sh $TIER tier FAILED at: $FAIL_STEP (rc=$FAIL_RC)" >&2
    exit "$FAIL_RC"
fi
echo "== ci.sh $TIER tier passed"
