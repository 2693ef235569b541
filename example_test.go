package livenas_test

import (
	"fmt"
	"time"

	"livenas"
)

// ExampleRun streams one reduced-scale session twice over the same
// bandwidth-constrained uplink — vanilla WebRTC, then LiveNAS with its
// online-trained super-resolution — and compares the quality the media
// server delivers.
func ExampleRun() {
	cfg := livenas.Config{
		Cat:      livenas.JustChatting,
		Seed:     7,
		Native:   livenas.Resolution{Name: "1080p-class", W: 384, H: 216},
		Ingest:   livenas.Resolution{Name: "540p-class", W: 192, H: 108},
		FPS:      10,
		Duration: 20 * time.Second,
		// An FCC-style uplink around 250 kbps, the reduced-scale world of
		// DESIGN.md "Substitutions".
		Trace: livenas.FCCUplink(3, time.Minute, 250),

		// Reduced-scale transport constants (area-scaled from WebRTC's).
		PatchSize:     24,
		MinVideoKbps:  40,
		GCCInitKbps:   160,
		StepKbps:      20,
		InitPatchKbps: 20,
		MinPatchKbps:  5,
		MTU:           240,
		Channels:      6,
	}

	cfg.Scheme = livenas.SchemeWebRTC
	web := livenas.Run(cfg)
	cfg.Scheme = livenas.SchemeLiveNAS
	ln := livenas.Run(cfg)

	fmt.Printf("WebRTC : %.1f dB PSNR, %d frames decoded\n", web.AvgPSNR, web.FramesDecoded)
	fmt.Printf("LiveNAS: %.1f dB PSNR, %d frames decoded, %d patches received\n", ln.AvgPSNR, ln.FramesDecoded, ln.PatchesReceived)
	fmt.Printf("gain   : %+.1f dB\n", ln.GainOver(web))
	// Output:
	// WebRTC : 22.4 dB PSNR, 200 frames decoded
	// LiveNAS: 23.8 dB PSNR, 200 frames decoded, 310 patches received
	// gain   : +1.4 dB
}
