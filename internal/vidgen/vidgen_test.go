package vidgen

import (
	"math"
	"testing"

	"livenas/internal/frame"
	"livenas/internal/metrics"
)

func TestCategoryStrings(t *testing.T) {
	want := map[Category]string{
		LeagueOfLegends: "LoL", JustChatting: "JC", WorldOfWarcraft: "WoW",
		EscapeFromTarkov: "EFT", Fortnite: "FN", Podcast: "PC", Sports: "SP",
		LiveEvent: "LE", FoodCooking: "FC",
	}
	for c, s := range want {
		if c.String() != s {
			t.Fatalf("%d.String()=%q want %q", c, c.String(), s)
		}
	}
	if Category(99).String() != "Category(99)" {
		t.Fatal("unknown category string")
	}
}

func TestCategoriesLists(t *testing.T) {
	if len(Categories()) != 9 {
		t.Fatalf("want 9 categories, got %d", len(Categories()))
	}
	if len(TwitchCategories()) != 5 || len(YouTubeCategories()) != 4 {
		t.Fatal("twitch/youtube split wrong")
	}
}

func TestDeterminism(t *testing.T) {
	a := NewSource(Fortnite, 96, 54, 42, 60)
	b := NewSource(Fortnite, 96, 54, 42, 60)
	fa, fb := a.FrameAt(3.5), b.FrameAt(3.5)
	for i := range fa.Pix {
		if fa.Pix[i] != fb.Pix[i] {
			t.Fatal("same (cat,seed,t) must render identical frames")
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := NewSource(JustChatting, 96, 54, 1, 60).FrameAt(2)
	b := NewSource(JustChatting, 96, 54, 2, 60).FrameAt(2)
	if metrics.PSNR(a, b) > 30 {
		t.Fatal("different sessions should produce clearly different frames")
	}
}

func TestTemporalRedundancy(t *testing.T) {
	// Consecutive frames (33ms apart) must be far more similar than frames
	// a minute apart — the temporal redundancy online SR exploits (§8.4).
	src := NewSource(JustChatting, 160, 90, 7, 300)
	f0 := src.FrameAt(10.0)
	f1 := src.FrameAt(10.033)
	near := metrics.PSNR(f0, f1)
	if near < 25 {
		t.Fatalf("adjacent frames too different: %.1f dB", near)
	}
}

func TestMotionOrdering(t *testing.T) {
	// Fortnite (high motion) must change faster frame-to-frame than Podcast.
	fast := NewSource(Fortnite, 160, 90, 3, 300)
	slow := NewSource(Podcast, 160, 90, 3, 300)
	df := metrics.PSNR(fast.FrameAt(5), fast.FrameAt(5.2))
	ds := metrics.PSNR(slow.FrameAt(5), slow.FrameAt(5.2))
	if df >= ds {
		t.Fatalf("Fortnite frame-pair PSNR %.1f should be below Podcast %.1f", df, ds)
	}
}

func TestSceneChangesWithinHorizon(t *testing.T) {
	src := NewSource(Fortnite, 64, 36, 9, 600)
	ch := src.SceneChanges()
	if len(ch) == 0 {
		t.Fatal("600s Fortnite session should have scene changes")
	}
	for i, c := range ch {
		if c <= 0 || c >= 600+float64(ParamsFor(Fortnite).SceneMean*3) {
			t.Fatalf("scene change %d at %f out of range", i, c)
		}
		if i > 0 && c <= ch[i-1] {
			t.Fatal("scene changes not increasing")
		}
	}
}

func TestSceneIndexAdvances(t *testing.T) {
	src := NewSource(Sports, 64, 36, 5, 600)
	ch := src.SceneChanges()
	if len(ch) == 0 {
		t.Skip("no changes scheduled")
	}
	before := src.SceneIndexAt(ch[0] - 0.1)
	after := src.SceneIndexAt(ch[0] + 0.1)
	if after != before+1 {
		t.Fatalf("scene index %d -> %d across change", before, after)
	}
}

func TestSceneChangeBreaksSimilarity(t *testing.T) {
	src := NewSource(Fortnite, 160, 90, 11, 600)
	ch := src.SceneChanges()
	if len(ch) == 0 {
		t.Skip("no changes scheduled")
	}
	tc := ch[0]
	within := metrics.PSNR(src.FrameAt(tc-0.5), src.FrameAt(tc-0.4))
	across := metrics.PSNR(src.FrameAt(tc-0.05), src.FrameAt(tc+0.05))
	if across >= within {
		t.Fatalf("scene change PSNR %.1f should be below within-scene %.1f", across, within)
	}
}

func TestHUDIsStatic(t *testing.T) {
	src := NewSource(LeagueOfLegends, 192, 108, 13, 300)
	f0, f1 := src.FrameAt(1), src.FrameAt(9)
	hudTop := 108 - 108/12
	for y := hudTop; y < 108; y++ {
		for x := 0; x < 192; x++ {
			if f0.At(x, y) != f1.At(x, y) {
				t.Fatalf("HUD pixel (%d,%d) changed over time", x, y)
			}
		}
	}
}

func TestFrameValueRange(t *testing.T) {
	// All categories render full frames with non-trivial dynamic range.
	for _, c := range Categories() {
		src := NewSource(c, 96, 54, 21, 60)
		f := src.FrameAt(1.7)
		lo, hi := 255, 0
		for _, v := range f.Pix {
			if int(v) < lo {
				lo = int(v)
			}
			if int(v) > hi {
				hi = int(v)
			}
		}
		if hi-lo < 40 {
			t.Fatalf("%v frame dynamic range too small: [%d,%d]", c, lo, hi)
		}
	}
}

func TestDetailOrdering(t *testing.T) {
	// High-detail categories must carry more high-frequency energy: compare
	// the loss from a down-up round trip (which removes high frequencies).
	loss := func(c Category) float64 {
		src := NewSource(c, 192, 108, 17, 60)
		f := src.FrameAt(2)
		lr := f.Downscale(2)
		up := lr.ResizeBilinear(192, 108)
		return metrics.MSE(f, up)
	}
	if loss(Fortnite) <= loss(Podcast) {
		t.Fatal("Fortnite should lose more energy to downscaling than Podcast")
	}
}

func TestGenericDataset(t *testing.T) {
	ds := GenericDataset(12, 48, 5)
	if len(ds) != 12 {
		t.Fatalf("got %d images", len(ds))
	}
	for i, f := range ds {
		if f.W != 48 || f.H != 48 {
			t.Fatalf("image %d wrong size", i)
		}
	}
	// Images must differ from one another.
	if metrics.PSNR(ds[0], ds[1]) > 30 {
		t.Fatal("dataset images too similar")
	}
}

func TestValueNoiseRangeAndContinuity(t *testing.T) {
	for i := 0; i < 200; i++ {
		x := float64(float64(i) * 0.173)
		v := valueNoise(x, x*0.7, 12345)
		if v < 0 || v > 1 {
			t.Fatalf("noise out of range: %f", v)
		}
		v2 := valueNoise(x+1e-4, x*0.7, 12345)
		if math.Abs(v-v2) > 0.01 {
			t.Fatalf("noise not continuous at %f: %f vs %f", x, v, v2)
		}
	}
}

// frameSink keeps BenchmarkFrameAt's frames live.
var frameSink *frame.Frame

// BenchmarkFrameAt renders 384x216 frames, the ingest_sweep native size,
// cycling through all nine categories a frame at a time.
func BenchmarkFrameAt(b *testing.B) {
	var srcs []*Source
	for _, c := range Categories() {
		srcs = append(srcs, NewSource(c, 384, 216, 1, 60))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frameSink = srcs[i%len(srcs)].FrameAt(float64(i) * 0.1)
	}
}
