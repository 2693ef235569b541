package exp

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"livenas/internal/core"
	"livenas/internal/sweep"
	"livenas/internal/trace"
	"livenas/internal/vidgen"
)

func fastOpts() Options {
	o := DefaultOptions()
	o.Duration = 25 * time.Second
	o.Traces = 1
	return o
}

var (
	sharedRunnerOnce sync.Once
	sharedRunner     *sweep.Runner
)

// testRunner gives swept figures one small concurrent runner for the whole
// package, exercising the submit-then-wait path the harness uses in
// production. Sharing it memoises a session that several golden tests
// submit, so it runs once.
func testRunner() *sweep.Runner {
	sharedRunnerOnce.Do(func() {
		sharedRunner = sweep.New(context.Background(), sweep.Options{Workers: 2})
	})
	return sharedRunner
}

// golden is the behaviour pin for refactors: a rendered table must match
// testdata/<name>.golden byte for byte. There is no update flag — a missing
// golden is written and the test fails once, so regenerating a table is
// rm + re-run, and the diff shows up in review.
func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	want, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Errorf("%s was missing and has been written; review it, commit it, re-run", path)
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("table differs from %s (if intended: rm the file and re-run)\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

func TestTableString(t *testing.T) {
	tb := &Table{ID: "x", Title: "demo", Header: []string{"a", "b"}}
	tb.Add("row", 1.5)
	tb.Add(42, time.Second)
	tb.Notes = "note"
	s := tb.String()
	for _, want := range []string{"== x: demo ==", "row", "1.50", "42", "1s", "-- note"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestRegistryFindAndIDs(t *testing.T) {
	ids := IDs()
	if len(ids) != len(Registry) {
		t.Fatalf("IDs %d != registry %d", len(ids), len(Registry))
	}
	for _, id := range ids {
		if _, err := Find(id); err != nil {
			t.Fatalf("Find(%q): %v", id, err)
		}
	}
	if _, err := Find("nope"); err == nil {
		t.Fatal("Find must fail for unknown id")
	}
}

func TestWorldScaleGeometry(t *testing.T) {
	for _, o := range []Options{{Fast: true}, {Fast: false}} {
		w := o.world()
		// SR factors must divide both native classes.
		for _, s := range []int{2, 3} {
			if w.native1080.W%s != 0 || w.native4K.W%s != 0 {
				t.Fatalf("scale %d does not divide world widths", s)
			}
		}
		// The proportional patch size must tile both natives exactly into
		// the paper's 16x9 grid.
		for _, native := range []struct{ W, H int }{
			{w.native1080.W, w.native1080.H},
			{w.native4K.W, w.native4K.H},
		} {
			ps := 24 * native.H / 216
			if native.W/ps != 16 || native.H/ps != 9 {
				t.Fatalf("grid %dx%d not 16x9 for %dx%d (ps=%d)", native.W/ps, native.H/ps, native.W, native.H, ps)
			}
		}
	}
}

func TestConfigForGeometry(t *testing.T) {
	o := fastOpts()
	for _, scale := range []int{2, 3} {
		cfg := o.baseConfig(0, scale)
		if got := cfg.Scale(); got != scale {
			t.Fatalf("scale %d got %d", scale, got)
		}
		cfg4 := o.fourKConfig(0, scale)
		if got := cfg4.Scale(); got != scale {
			t.Fatalf("4K scale %d got %d", scale, got)
		}
		if cfg4.PatchSize != 2*cfg.PatchSize {
			t.Fatalf("4K patch %d should be 2x 1080p patch %d", cfg4.PatchSize, cfg.PatchSize)
		}
	}
}

func TestUplinksScaledIntoWorld(t *testing.T) {
	o := fastOpts()
	traces := o.uplinks(5, 1)
	if len(traces) != 5 {
		t.Fatalf("traces %d", len(traces))
	}
	for _, tr := range traces {
		avg := tr.Avg()
		// Fig-8 means are 0.5-10 Mbps; the fast world divides by 25.
		if avg < 10 || avg > 800 {
			t.Fatalf("trace mean %v outside the scaled world regime", avg)
		}
	}
}

func TestFig8Structure(t *testing.T) {
	tb := Fig8(fastOpts())
	golden(t, "fig8", tb.String())
	if len(tb.Rows) != 25 {
		t.Fatalf("Fig8 rows %d want 25", len(tb.Rows))
	}
	// CDF P column must be non-decreasing and end at 1.00.
	prev := 0.0
	for _, r := range tb.Rows {
		p, err := strconv.ParseFloat(r[0], 64)
		if err != nil || p < prev {
			t.Fatalf("bad CDF row %v", r)
		}
		prev = p
	}
	if tb.Rows[len(tb.Rows)-1][0] != "1.00" {
		t.Fatal("CDF must end at 1.00")
	}
}

func TestTable2Structure(t *testing.T) {
	tb := Table2(fastOpts())
	golden(t, "table2", tb.String())
	if len(tb.Rows) != 6 {
		t.Fatalf("Table2 rows %d want 6", len(tb.Rows))
	}
	// The two 4K rows use 3 GPUs.
	for _, r := range tb.Rows[4:] {
		if r[5] != "x3" {
			t.Fatalf("4K row GPUs %q", r[5])
		}
	}
}

func TestTable1CountsThisRepo(t *testing.T) {
	tb := Table1(fastOpts())
	if len(tb.Rows) < 5 {
		t.Fatalf("Table1 rows %d", len(tb.Rows))
	}
	last := tb.Rows[len(tb.Rows)-1]
	if last[0] != "TOTAL" {
		t.Fatal("Table1 missing TOTAL row")
	}
	total, err := strconv.Atoi(last[2])
	if err != nil || total < 5000 {
		t.Fatalf("implausible total LoC %q", last[2])
	}
}

func TestFig17Structure(t *testing.T) {
	tb := Fig17(fastOpts())
	golden(t, "fig17", tb.String())
	if len(tb.Rows) != 4 {
		t.Fatalf("Fig17 rows %d", len(tb.Rows))
	}
	if !strings.Contains(tb.Rows[1][6], "%") {
		t.Fatalf("LiveNAS row missing saving: %v", tb.Rows[1])
	}
}

func TestFig2aRuns(t *testing.T) {
	tb := Fig2a(fastOpts(), testRunner())
	golden(t, "fig2a", tb.String())
	if len(tb.Rows) == 0 || !strings.Contains(tb.Notes, "utilisation") {
		t.Fatalf("Fig2a incomplete: %v", tb.Notes)
	}
}

func TestFig22DiminishingGradient(t *testing.T) {
	tb := Fig22(fastOpts())
	golden(t, "fig22", tb.String())
	if len(tb.Rows) < 4 {
		t.Fatalf("rows %d", len(tb.Rows))
	}
	first, _ := strconv.ParseFloat(strings.TrimPrefix(tb.Rows[0][2], "+"), 64)
	last, _ := strconv.ParseFloat(strings.TrimPrefix(tb.Rows[len(tb.Rows)-1][2], "+"), 64)
	if !(first > last) {
		t.Fatalf("per-epoch gradient should diminish: first %v last %v", first, last)
	}
}

func TestFig20QoEImproves(t *testing.T) {
	tables := Fig20(fastOpts(), testRunner())
	if len(tables) != 2 {
		t.Fatalf("tables %d", len(tables))
	}
	improved := 0
	for _, tb := range tables {
		golden(t, tb.ID, tb.String())
		for _, r := range tb.Rows {
			q0, _ := strconv.ParseFloat(r[2], 64)
			q1, _ := strconv.ParseFloat(r[3], 64)
			// Tiny boosts (warm-up-limited short runs) may wiggle the
			// smoothness term by a few percent; never allow a real loss.
			if q1 < q0*0.95-0.02 {
				t.Fatalf("%s: LiveNAS QoE %v well below WebRTC %v in %v", tb.ID, q1, q0, r)
			}
			if q1 > q0 {
				improved++
			}
		}
	}
	if improved < 4 {
		t.Fatalf("only %d of 8 cells improved", improved)
	}
}

// runEntry runs a registered experiment at fastOpts on a test runner and
// pins every table it returns against its golden.
func runEntry(t *testing.T, id string) {
	t.Helper()
	e, err := Find(id)
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range e.Run(context.Background(), fastOpts(), testRunner()) {
		golden(t, tb.ID, tb.String())
	}
}

// TestSweptFigureGoldens pins the scheduler- (fig5), codec- (fig14) and
// trainer-heavy (fig16) swept tables, both Twitch gain tables (fig9), the
// equal-quality bandwidth search (fig13), the per-cell heatmap (fig21) and
// the SSIM table (fig25) byte for byte, so an optimisation of those layers
// has a behaviour pin to hold still against.
func TestSweptFigureGoldens(t *testing.T) {
	for _, fig := range []func(Options, *sweep.Runner) *Table{Fig5, Fig14, Fig16} {
		tb := fig(fastOpts(), testRunner())
		golden(t, tb.ID, tb.String())
	}
	for _, tb := range Fig9(fastOpts(), testRunner()) {
		golden(t, tb.ID, tb.String())
	}
	for _, id := range []string{"fig13", "fig21", "fig25"} {
		runEntry(t, id)
	}
}

// TestSessionFiguresHonourCancel runs the single-session case studies on a
// runner whose context is already cancelled: like every swept figure they
// must surface the cancellation as a panic carrying context.Canceled (the
// harness's contract for an interrupted sweep) instead of running their
// sessions to completion and returning a table.
func TestSessionFiguresHonourCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, id := range []string{"fig2a", "fig13"} {
		e, err := Find(id)
		if err != nil {
			t.Fatal(err)
		}
		r := sweep.New(ctx, sweep.Options{Workers: 2})
		func() {
			defer func() {
				p := recover()
				if err, ok := p.(error); !ok || !errors.Is(err, context.Canceled) {
					t.Errorf("%s on a cancelled runner: recovered %v, want a context.Canceled panic", id, p)
				}
			}()
			e.Run(ctx, fastOpts(), r)
		}()
		if s := r.Stats(); s.Executed != 0 {
			t.Errorf("%s on a cancelled runner executed %d sessions", id, s.Executed)
		}
	}
}

// TestOfflineStudyGoldens pins the offline SR-trainer studies — the §2
// label-sampling tables (fig2d-fps, fig2d-frac) and the residual, sampler
// and recency ablations — byte for byte. They run no session, only the
// trainer on rendered frames.
func TestOfflineStudyGoldens(t *testing.T) {
	for _, id := range []string{"fig2d", "abl-residual", "abl-sampler", "abl-recency"} {
		runEntry(t, id)
	}
}

// TestLossy3GGolden pins the one path no figure table covers: Fortnite over
// a 3G uplink with 1% packet loss (the benchmark's ingest_sweep lossy pair),
// where key-frame recovery, reassembly loss and the encoder's re-encode
// attempts all run. Byte counts and frame counts are exact; PSNR is printed
// to six decimals so a one-pixel drift shows.
func TestLossy3GGolden(t *testing.T) {
	o := fastOpts()
	cfg := o.baseConfig(vidgen.Fortnite, 2)
	cfg.Trace = trace.ThreeG(3000, o.duration()+time.Minute).Scale(o.world().kbpsScale * 5)
	cfg.LossRate = 0.01
	tb := &Table{
		ID:     "lossy3g",
		Title:  "Fortnite over lossy 3G (1% loss): exact session counters",
		Header: []string{"scheme", "AvgPSNR", "FramesDecoded", "FramesLost", "BytesVideo", "BytesPatch", "PatchesSent", "AvgE2ELatency"},
	}
	r := testRunner()
	var hs []*sweep.Handle
	for _, scheme := range []core.Scheme{core.SchemeWebRTC, core.SchemeLiveNAS} {
		c := cfg
		c.Scheme = scheme
		hs = append(hs, r.Go(c))
	}
	for _, h := range hs {
		res := wait(h)
		tb.Add(res.Cfg.Scheme.String(), fmt.Sprintf("%.6f", res.AvgPSNR), res.FramesDecoded, res.FramesLost,
			res.BytesVideo, res.BytesPatch, res.PatchesSent, res.AvgE2ELatency.String())
	}
	golden(t, tb.ID, tb.String())
}
