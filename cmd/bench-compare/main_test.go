package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func fullBenchFile(speedup float64) *benchFile {
	f := &benchFile{Benches: map[string]entry{}}
	for _, name := range tracked {
		f.Benches[name] = entry{
			Kernel:  variant{NsOp: 100},
			Ref:     variant{NsOp: 100 * speedup},
			Speedup: speedup,
		}
	}
	return f
}

func writeBenchFile(t *testing.T, f *benchFile) string {
	t.Helper()
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReadBenchFileAcceptsComplete(t *testing.T) {
	path := writeBenchFile(t, fullBenchFile(2.0))
	if _, err := readBenchFile(path); err != nil {
		t.Fatalf("complete file rejected: %v", err)
	}
}

// TestReadBenchFileRejectsMissingTracked pins the gate contract: a candidate
// file that dropped any tracked bench — including the int8/4K entries — is
// an error, never a zero-value pass.
func TestReadBenchFileRejectsMissingTracked(t *testing.T) {
	for _, name := range tracked {
		f := fullBenchFile(2.0)
		delete(f.Benches, name)
		path := writeBenchFile(t, f)
		if _, err := readBenchFile(path); err == nil {
			t.Fatalf("file missing tracked bench %q was accepted", name)
		}
	}
}

func TestReadBenchFileRejectsNonPositive(t *testing.T) {
	f := fullBenchFile(2.0)
	e := f.Benches["inference_4k"]
	e.Speedup = 0
	f.Benches["inference_4k"] = e
	path := writeBenchFile(t, f)
	if _, err := readBenchFile(path); err == nil {
		t.Fatal("file with zero speedup was accepted")
	}
}

func TestCompareFlagsMissingAndRegressed(t *testing.T) {
	base, cur := fullBenchFile(2.0), fullBenchFile(2.0)

	// A key missing from the candidate map must fail even if a buggy caller
	// bypassed readBenchFile's validation.
	delete(cur.Benches, "inference_1080p_int8")
	// A genuine regression beyond the threshold must fail too.
	e := cur.Benches["conv_forward"]
	e.Speedup = 1.0
	cur.Benches["conv_forward"] = e

	failed := compare(base, cur, 0.15)
	want := map[string]bool{"inference_1080p_int8": true, "conv_forward": true}
	if len(failed) != len(want) {
		t.Fatalf("failed = %v, want keys %v", failed, want)
	}
	for _, name := range failed {
		if !want[name] {
			t.Fatalf("unexpected failure %q in %v", name, failed)
		}
	}

	// Within-threshold noise passes.
	e = cur.Benches["conv_backward"]
	e.Speedup = 2.0 * 0.9
	cur.Benches["conv_backward"] = e
	for _, name := range compare(base, cur, 0.15) {
		if name == "conv_backward" {
			t.Fatal("within-threshold drop reported as regression")
		}
	}
}
