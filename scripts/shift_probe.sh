#!/usr/bin/env bash
# Code-layout shift probe. Builds the repository benchmark twice from one
# commit (REV, default HEAD): once as it is, and once with 32 bytes of padding
# appended to the codec's intraSAD8x8SSE2 kernel. The codec's text is linked
# before vidgen's and nn's, so the padding moves every later function by
# 32 bytes, an odd multiple of 32. The two binaries then run in alternating
# pairs on one workload, and benchmark/run.sh -compare reads the two result
# sets. A hot loop whose speed follows its 64-byte parity moves between the
# two builds; a loop head aligned with PCALIGN $64 does not.
#
#   scripts/shift_probe.sh WORKLOAD [PAIRS] [SECONDS] [REV]
#
# PAIRS defaults to 10 and SECONDS to 20, the A/B protocol of ROADMAP.md;
# pair i runs seed i on both builds. Everything is written under a fresh
# temporary directory, which is printed and kept for inspection.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
workload="${1:?usage: scripts/shift_probe.sh WORKLOAD [PAIRS] [SECONDS] [REV]}"
pairs="${2:-10}"
secs="${3:-20}"
rev="${4:-HEAD}"
tmp="$(mktemp -d)"
echo "shift probe: $workload at $rev, $pairs pairs of ${secs}s, in $tmp"

export GOCACHE="$tmp/gocache" GOPATH="$tmp/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
for v in plain padded; do
    mkdir -p "$tmp/$v"
    git -C "$root" archive "$rev" | tar -x -C "$tmp/$v"
done
# 32 one-byte NOPs after intraSAD8x8SSE2's RET: never executed, they only
# lengthen the function.
for _ in $(seq 32); do echo '	BYTE $0x90'; done >>"$tmp/padded/internal/codec/sad_amd64.s"
for v in plain padded; do
    (cd "$tmp/$v/benchmark" && go build -buildvcs=false -o "$tmp/$v.bin" .)
done

for i in $(seq "$pairs"); do
    for v in plain padded; do
        (cd "$tmp/$v" && "$tmp/$v.bin" -workload "$workload" -seed "$i" \
            -seconds "$secs" -trace 0 -out "$tmp/out-$v" >/dev/null) ||
            echo "$v seed $i exited $?"
    done
done
(cd "$tmp/plain" && "$tmp/plain.bin" -compare "$tmp/out-plain" "$tmp/out-padded") || true
