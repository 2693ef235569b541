#!/usr/bin/env bash
# Tracked kernel benchmarks: runs the Conv2D micro-benches (internal/nn)
# and the end-to-end train-epoch / 1080p-inference benches (internal/sr),
# each in its "kernel" (im2col/GEMM engine) and "ref" (retained scalar
# baseline) variant, and emits BENCH_kernels.json with ns/op, MB/s,
# allocs/op plus the kernel-vs-ref speedup and allocation-reduction
# ratios. The JSON is committed so the perf trajectory is reviewable
# across PRs.
#
#   scripts/bench.sh            full run, writes BENCH_kernels.json
#   scripts/bench.sh -short     few-iteration smoke run (CI gate): exercises
#                               every kernel bench and the JSON emitter,
#                               writes to a temp file so the tracked baseline
#                               keeps full-run numbers
#   scripts/bench.sh -o FILE    write the kernel JSON elsewhere
#
# allocs_reduction uses the sentinel 999999 when the kernel variant
# allocates nothing per op (the reduction is infinite).
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="BENCH_kernels.json"
SHORT=0
while [[ $# -gt 0 ]]; do
    case "$1" in
    -short) SHORT=1 ;;
    -o)
        OUT="$2"
        shift
        ;;
    *)
        echo "usage: scripts/bench.sh [-short] [-o file]" >&2
        exit 2
        ;;
    esac
    shift
done

if [[ "$SHORT" == 1 && "$OUT" == "BENCH_kernels.json" ]]; then
    OUT="$(mktemp -t bench_kernels_short.XXXXXX.json)"
fi

if [[ "$SHORT" == 1 ]]; then
    # A handful of iterations, not one: the first iteration pays the arena
    # and pool cold start, which skews single-shot kernel-vs-ref ratios the
    # bench-regression gate (cmd/bench-compare) compares against the
    # full-run baseline.
    NN_ARGS=(-benchtime 5x)
    SR_ARGS=(-benchtime 5x)
else
    # Long enough for steady-state arena/pool behaviour to dominate.
    NN_ARGS=(-benchtime 2s)
    SR_ARGS=(-benchtime 15x)
fi

TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT

echo "== bench: internal/nn conv kernels" >&2
go test -run '^$' -bench 'BenchmarkConvForward$|BenchmarkConvBackward$' \
    -benchmem "${NN_ARGS[@]}" ./internal/nn | tee -a "$TMP" >&2
echo "== bench: internal/sr train epoch + inference (1080p f32/int8, 4K)" >&2
go test -run '^$' -bench 'BenchmarkTrainEpoch$|BenchmarkInference1080p$|BenchmarkInference1080pInt8$|BenchmarkInference4K$' \
    -benchmem "${SR_ARGS[@]}" ./internal/sr | tee -a "$TMP" >&2

awk -v goversion="$(go version | awk '{print $3}')" -v short="$SHORT" '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)  # strip the -GOMAXPROCS suffix
    sub(/^Benchmark/, "", name)
    split(name, parts, "/")
    bench = parts[1]; variant = parts[2]
    ns = ""; mbs = ""; allocs = ""; bytes = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op") ns = $(i - 1)
        if ($i == "MB/s") mbs = $(i - 1)
        if ($i == "B/op") bytes = $(i - 1)
        if ($i == "allocs/op") allocs = $(i - 1)
    }
    key = bench "." variant
    NS[key] = ns; MBS[key] = mbs; AL[key] = allocs; BY[key] = bytes
    seen[bench] = 1
}
END {
    map["ConvForward"] = "conv_forward"
    map["ConvBackward"] = "conv_backward"
    map["TrainEpoch"] = "train_epoch"
    map["Inference1080p"] = "inference_1080p"
    map["Inference1080pInt8"] = "inference_1080p_int8"
    map["Inference4K"] = "inference_4k"
    order[1] = "ConvForward"; order[2] = "ConvBackward"
    order[3] = "TrainEpoch"; order[4] = "Inference1080p"
    order[5] = "Inference1080pInt8"; order[6] = "Inference4K"
    printf "{\n"
    printf "  \"generated_by\": \"scripts/bench.sh\",\n"
    printf "  \"go\": \"%s\",\n", goversion
    printf "  \"short\": %s,\n", short ? "true" : "false"
    printf "  \"note\": \"kernel = im2col/GEMM engine, ref = scalar baseline (same binary, SetRefKernels); for the int8 benches (inference_1080p_int8, inference_4k) kernel = int8-quantized path and ref = the f32 GEMM engine, so their speedup is the quantization win on top of the optimised path; speedup = ref_ns/kernel_ns; allocs_reduction = ref_allocs/kernel_allocs, 999999 when the kernel path allocates zero\",\n"
    printf "  \"benches\": {\n"
    nout = 0
    for (oi = 1; oi <= 6; oi++) {
        b = order[oi]
        if (!(b in seen)) continue
        kk = b ".kernel"; rk = b ".ref"
        if (NS[kk] == "" || NS[rk] == "") continue
        if (nout++) printf ",\n"
        printf "    \"%s\": {\n", map[b]
        printf "      \"kernel\": {\"ns_op\": %s, \"mb_s\": %s, \"bytes_op\": %s, \"allocs_op\": %s},\n", NS[kk], MBS[kk] == "" ? "0" : MBS[kk], BY[kk], AL[kk]
        printf "      \"ref\": {\"ns_op\": %s, \"mb_s\": %s, \"bytes_op\": %s, \"allocs_op\": %s},\n", NS[rk], MBS[rk] == "" ? "0" : MBS[rk], BY[rk], AL[rk]
        printf "      \"speedup\": %.2f,\n", NS[rk] / NS[kk]
        if (AL[kk] + 0 == 0) red = 999999
        else red = AL[rk] / AL[kk]
        printf "      \"allocs_reduction\": %.2f\n", red
        printf "    }"
    }
    printf "\n  }\n}\n"
    if (nout != 6) {
        print "bench.sh: expected 6 benchmarks, parsed " nout > "/dev/stderr"
        exit 1
    }
}
' "$TMP" >"$OUT"

echo "== wrote $OUT" >&2
cat "$OUT"
