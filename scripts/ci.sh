#!/usr/bin/env bash
# Tiered CI driver (.github/workflows/ci.yml runs both tiers; either runs
# standalone on a laptop).
#
#   scripts/ci.sh fast    blocking tier: build, gofmt, go vet on three build
#                         partitions (default, -tags purego, GOARCH=arm64),
#                         no fused multiply-add in any arm64 livenas code,
#                         the enum, lock and write-error pins by name (a new
#                         Scheme or fleet State without a case, a Send that
#                         keeps its lock, a dropped Flush error),
#                         the telemetry lock pair by name, the replay and
#                         join pins by name (the gcc delay-fold replay,
#                         QueuedConn's and Pool's Close joins, RunContext's
#                         camera join and the camera's bounded queue,
#                         whole-Results session determinism),
#                         short tests,
#                         the benchmark module's vet + tests, the int8 and
#                         codec+vidgen differential tests (PSNR's integer
#                         sum included), the codec's bordered reference,
#                         block kernels, the vidgen pixel row's Go twin, the
#                         table-driven sprites and Downscale's row kernel
#                         by name, the wire format
#                         pin, the playlist format pin (with the event-heap
#                         oracle and WireSize = frame length), the link
#                         model pin (netem.Link and SimConn against their
#                         seed oracles), the media server pin (hostile
#                         patches, one socket session), the sr
#                         inference differentials (the f32 edge tiles'
#                         included) and the arena ownership
#                         contract by name, the experiment harness pins (the
#                         offline-study and swept-figure goldens, session
#                         figures honouring cancellation) by name, parallel
#                         sweep smoke (one small figure sweep at -parallel 4)
#   scripts/ci.sh full    merge tier: go vet on the same three build
#                         partitions (stdlib asmdecl/copylocks on each — the
#                         asm stubs and their Go twins are their territory),
#                         the same benchmark-module step, full tests, race
#                         tier (includes internal/sweep and internal/fleet),
#                         fuzz smoke (wire, playlist,
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
# report PASS. A NAME of the form Test/sub pins one subtest: its top-level
# test runs whole and the subtest's own PASS line is required.
pin_tests() {
    local pkg="$1"
    shift
    local out t
    out="$(go test -count=1 -v -run "^($(
        IFS='|'
        echo "${*%%/*}"
    ))\$" "$pkg")" || {
        echo "$out"
        return 1
    }
    for t in "$@"; do
        grep -q -- "^ *--- PASS: $t " <<<"$out" || {
            echo "pin_tests $pkg: $t did not run" >&2
            return 1
        }
    done
}

# The inference forward's bit-identity contract (DESIGN.md "Inference
# forward"): each rewritten stage against the oracle kept in its ref_test.go,
# the bordered block read through its tap tables (flipped included, f32 and
# int16) against the explicit im2col panel it replaced, the narrow and the
# installed wide f32 tile set (offset tables, relu store, every width
# remainder under every row group) against a plain GEMM over that panel,
# the 4-column edge tiles (8-, 4- and 1-row; NaN, -0 and relu) against the
# same GEMM, the vector requant on misaligned rows, and the int8 paths on
# odd frame sizes with and without it. The bilinear skip and the sub-pixel
# residual add are pinned to their seed loops (NaN/±Inf residuals, every
# lane remainder) under each row-kernel set the host can run. The
# top-level tests cover the vector kernels where the CPU has them, and the
# /go subtests name the Go twins, so a twin is checked on every host.
sr_inference_pin() {
    pin_tests ./internal/sr TestSuperResolveMatchesRef \
        TestAddResidualMatchesRef TestAddResidualMatchesRef/go &&
        pin_tests ./internal/nn TestConvInferMatchesForwardReLU TestConvGEMMMatchesRef \
            TestBorderedBlockMatchesIm2col TestConvKernelVariantsMatch \
            TestEdgeTilesMatchRef TestEdgeTilesMatchRef/go \
            TestRequantReLUVecMatchesGo TestQuantOddFrameSizes &&
        pin_tests ./internal/frame TestResizeBilinearMatchesRef TestResizeBilinearMatchesRef/go
}

# The codec's differentials, then FrameAt's (DESIGN.md "Session hot path"),
# by name: the quantiser tables, the transforms, the encoder's streams
# against the oracle encoder, the encoder's bordered reference (every SAD
# and prediction the motion search can read, at both search ranges,
# against the clamped per-pixel oracle), the intra cost, the motion search
# with its skipped repeats against the seed search, and the block kernels
# (reconstruction with residuals past ±2^31, the quantiser at its rounding
# edges, the inter residual), each under every codec kernel set, and the
# signed Golomb code at the edges of int32; then the frame oracle (the
# table-driven sprites against the seed's per-pixel sprites, at times a
# sprite crosses the frame's left and right edges, row 0 and the HUD
# band's top), the sprite body's noise tables against valueNoise bit for
# bit, and the pixel-row differential (posterise ties, -0
# quotients, the glyph toggle at 127, both clamps, every lane remainder)
# under each pixel-row kernel set the host can run; then the camera's
# Downscale(2) row kernel against the seed's float box average (every
# block sum 0-1020, every remainder of its 16 outputs; whole frames at
# factors 2-4 with odd sides); then PSNR's integer sum against the seed
# float loop (every window of a small frame, a 4K all-0 against all-255
# frame). The top-level tests cover the vector kernels where the CPU has
# them, and the /go subtests name the Go twins, so a rename cannot drop a
# twin's check on a host with the kernels.
codec_vidgen_differential() {
    pin_tests ./internal/codec TestQuantTableMatchesPow TestDCTMatchesRef TestDCTMatchesRef/go \
        TestEncodeBitstreamMatchesRef TestEncodeBitstreamMatchesRef/go \
        TestSADMatchesRef TestSADMatchesRef/go TestIntraSADMatchesRef TestIntraSADMatchesRef/go \
        TestSearchMotionMatchesRef TestSearchMotionMatchesRef/go \
        TestReconstructMatchesRef TestReconstructMatchesRef/go \
        TestQuantiseMatchesRef TestQuantiseMatchesRef/go \
        TestResidualMatchesRef TestResidualMatchesRef/go TestSEEveryInt32Edge &&
        pin_tests ./internal/vidgen TestFrameAtMatchesRef TestFrameAtMatchesRef/go \
            TestPixRowMatchesGo TestPixRowMatchesGo/go TestSpriteNoiseMatchesValueNoise &&
        pin_tests ./internal/frame TestDownscaleMatchesRef TestDownscaleMatchesRef/go \
            TestHalveRowMatchesRef TestHalveRowMatchesRef/go &&
        pin_tests ./internal/metrics TestMSEMatchesRef TestMSEMatchesRef/go
}

# No fused multiply-add anywhere in the module's code (ROADMAP item 19): Go
# may fuse x*y + z into one FMADD-family instruction on arm64, which rounds
# once where amd64 and the oracles round twice, so an arm64 host would
# reproduce no golden. The arm64 builds of livenas-bench and of the test
# binaries that hold oracles or goldens (frame, nn, codec, vidgen, metrics,
# sr, gcc, core, exp) are disassembled, and any such instruction in a
# livenas/ symbol fails the step; write the expression as float64(x*y) + z
# (or float32), rounding a product where it is used rather than where it is
# defined, so the amd64 text does not move.
no_fused_multiply_add() {
    local dir found pkg rc=0
    dir="$(mktemp -d)"
    found="$(GOARCH=arm64 go build -o "$dir/livenas-bench" ./cmd/livenas-bench &&
        for pkg in frame nn codec vidgen metrics sr gcc core exp; do
            GOARCH=arm64 go test -c -o "$dir/$pkg.test" "./internal/$pkg" || exit 1
        done &&
        for bin in "$dir"/*; do go tool objdump "$bin" || exit 1; done | awk '
            /^TEXT / { sym = $2 }
            /\t(FMADD|FMSUB|FNMADD|FNMSUB)[SD]? / && sym ~ /^livenas\// { print sym, $1 }')" || rc=$?
    rm -rf "$dir"
    if [[ $rc -ne 0 ]]; then
        return "$rc"
    fi
    if [[ -n "$found" ]]; then
        echo "fused multiply-add on arm64 (symbol, source line):" >&2
        echo "$found" >&2
        return 1
    fi
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

# What a peer can send the media server and the ingest client (DESIGN.md
# "One media server", "One ingest client"): a patch whose declared size is
# refused before anything is decoded (no 268 MB decoder), an odd-sided or
# non-square patch dropped instead of panicking the trainer and with it
# every session on the node, a hello whose frame rate would size the 3 s
# pairing ring at zero frames or past its memory budget refused (and the
# ring never emptied whatever the rate), a non-positive -epoch refused before
# the server listens; epoch feedback that is NaN, ±Inf
# or a negative rate ignored by the client's scheduler, client flags that
# would panic the frame ticker or stream the wrong content refused before
# dialling, and a refusal or a hang-up ending the client's stream with the
# reason; and one socket session end to end through core.Client and
# core.Server (scheduled frames and patches in, MsgStats with the epoch
# feedback steering the scheduler, Algorithm 1's events, a published
# segment and the GPU slot released).
media_server_pin() {
    pin_tests ./internal/core TestPatchHostileHeaderAlloc TestVideoLowFrameRate TestFeedbackOutsideInputIgnored &&
        pin_tests ./cmd/livenas-server TestMalformedPatchGeometry TestHostileHelloRefused TestEpochFlagRefused TestServeIngestLoopback &&
        pin_tests ./cmd/livenas-client TestClientConfigRejectsBadFlags TestStreamRefused TestStreamHangUp TestStreamSession
}

# Deterministic replay and goroutine joins (DESIGN.md "Correctness
# tooling"), by name so a rename cannot drop one: one seeded ack stream
# replayed through fresh gcc controllers bit for bit (a delay fold in map
# order fails it), QueuedConn's and Pool's Close back at their goroutine
# baseline, RunContext back at its baseline after a session cancelled at
# each of a spread of event boundaries (the first and the last included)
# and after one that completes (the client's camera goroutine joined), the
# camera rendering no further than cameraDepth captures ahead of a stalled
# session nor past the session's end, and joined while it waits on a full
# queue, and three runs of a lossy two-GPU LiveNAS session, one of them on
# one core, encoding to the same Results bytes. All six take under 4 s.
replay_join_pins() {
    pin_tests ./internal/gcc TestObserveDelaysReplayBitExact &&
        pin_tests ./internal/transport TestQueuedConnCloseJoinsWriter &&
        pin_tests ./internal/nn TestPoolCloseJoinsWorkers &&
        pin_tests ./internal/core TestDeterministicRuns TestRunContextJoinsCamera TestCameraBoundedAhead
}

# A default-less switch, lock-then-defer and checked writes (DESIGN.md
# "Correctness tooling"), by name so a rename cannot drop one: every Scheme
# below numSchemes needs a row of what NewServer sets up; QueuedConn's Send
# after Close and after a send error returns, twice, and leaves the lock
# free; WriteEvents and WriteJSON into a failing writer report the error (a
# trace smaller than WriteEvents' buffer fails only at its Flush).
enum_lock_write_pins() {
    pin_tests ./internal/core TestNewServerEveryScheme &&
        pin_tests ./internal/transport TestQueuedConnSendAfterFailure &&
        pin_tests ./internal/telemetry TestRegistryWritesReportWriterError
}

# go vet on the three build partitions of the assembly kernels. The default
# amd64 build's asmdecl pass reports a TEXT with no Go stub and a stub whose
# frame no longer matches its TEXT; under -tags purego a stub whose build
# tag overlaps its Go twin's has no body; under GOARCH=arm64 a twin that a
# non-amd64 build needs but whose tag excludes it is undefined.
vet_partitions() {
    step "go vet" go vet ./...
    step "go vet -tags purego" go vet -tags purego ./...
    step "go vet GOARCH=arm64" env GOARCH=arm64 go vet ./...
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
    vet_partitions
    step "no fused multiply-add (arm64)" no_fused_multiply_add
    step "enum, lock and write-error pins" enum_lock_write_pins
    # The registry's two locks (evMu for the trace, mu for the metrics) meet
    # only between SetEventCap and Snapshot; this race turns an inversion of
    # their order into a failure within 5 s instead of a rare hang.
    step "telemetry lock pair" pin_tests ./internal/telemetry TestEventCapSnapshotLockPair
    step "replay and join pins" replay_join_pins
    step "go test -short" go test -short ./...
    step "benchmark module" benchmark_module
    # The int8 fast path's correctness contract, run by name so a test
    # rename or build-tag slip can't silently drop it from the blocking
    # tier: kernel-vs-scalar and int8-vs-f32 differentials plus the
    # byte-identical strip/cell determinism pins.
    step "int8 differential + determinism" go test \
        -run 'TestQuant|TestAnytime|TestRequant' ./internal/nn ./internal/sr
    # The codec/vidgen/metrics bit-identity contract (DESIGN.md), by name for
    # the same reason: the table-driven hot path against the per-pixel and
    # per-coefficient oracles in their ref_test.go files.
    step "codec+vidgen differential" codec_vidgen_differential
    # The wire format contract (DESIGN.md "Wire format v2"), by name for the
    # same reason (pin_tests: each must report PASS): the literal v2 bytes,
    # the v1-gob and 16 MB-claim skips, the canonical-form rejections and the
    # allocation ceilings.
    step "wire format pin" pin_tests ./internal/wire TestFrameLayoutPinned \
        TestFrameV1GobSkipped TestFrameUnknownVersionSkipDoesNotAllocate \
        TestFrameNonCanonicalRejected TestFrameAllocCeilings
    step "playlist format pin" playlist_format_pin
    step "link model pin" link_model_pin
    step "media server pin" media_server_pin
    step "sr inference differential" sr_inference_pin
    # The arena ownership contract (every Get/GetBuf handed back exactly
    # once) has no static check: these three tests carry it alone, for the
    # inference forward, the training chain and the serving path's steady
    # state, so a rename must not drop one.
    step "arena_contract_pin" pin_tests ./internal/sr TestInferenceReturnsEveryTensor \
        TestTrainerReturnsEveryTensor TestSuperResolveAllocCeilings
    # The experiment harness's behaviour pins (DESIGN.md "Sweep engine"):
    # the offline SR-study goldens, the swept-figure goldens and the session
    # figures' cancellation contract, by name so a rename cannot drop one.
    step "experiment pins" pin_tests ./internal/exp TestOfflineStudyGoldens \
        TestSweptFigureGoldens TestSessionFiguresHonourCancel
    # One real figure sweep through the concurrent engine: catches worker /
    # cache / ordering regressions the unit tests can't see end to end.
    step "sweep smoke" go run ./cmd/livenas-bench -fig fig23 -parallel 4 -dur 20s -traces 1
else
    FUZZTIME="${FUZZTIME:-10s}"
    step "go build" go build ./...
    vet_partitions
    step "go test" go test ./...
    step "benchmark module" benchmark_module
    # internal/nn rides along for the int8/strip-parallel kernel stress;
    # internal/sr's stress set includes the quantized-path churn test;
    # internal/fleet races admitted plans executing on the sweep runner.
    # internal/edge races the origin/relay/viewer actors over both SimConn
    # and real-socket (net.Pipe + queued-writer) paths. internal/vidgen
    # renders one Source from several goroutines (pooled FrameAt scratch).
    # cmd/livenas-server races a socket session's message pump against the
    # loop that drives its core.Server, and cmd/livenas-client the same for
    # its core.Client. internal/core's TestSessionConcurrencySmoke runs with
    # the camera started, so the detector sees its shots cross goroutines.
    step "go test -race" go test -race ./internal/vidgen ./internal/telemetry ./internal/sr ./internal/nn ./internal/wire ./internal/transport ./internal/core ./cmd/livenas-server ./cmd/livenas-client ./internal/sweep ./internal/fleet ./internal/edge
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
