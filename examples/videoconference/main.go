// Videoconference: the integrated-services workload the paper's
// introduction motivates — VBR video, interactive audio, bulk ftp, and
// telnet share one 2.5 Mb/s link under SFQ. The low-throughput
// interactive flows get low delay, the VBR video gets its share without
// being penalized for using idle bandwidth, and ftp soaks up the rest.
//
// Run with: go run ./examples/videoconference
package main

import (
	"fmt"
	"log"
	"math/rand"

	_ "repro/internal/core" // registers "sfq"
	"repro/internal/eventq"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/units"
	"repro/internal/vbr"
)

const (
	flowVideo = iota + 1
	flowAudio
	flowTelnet
	flowFTP
)

func main() {
	const duration = 30.0
	rng := rand.New(rand.NewSource(42))
	q := &eventq.Queue{}

	s := sched.MustNew("sfq-lowweight") // §2.3: interactive flows win ties
	// The video weight covers its scene-level peaks (≈ 1.8 × 1.21 Mb/s),
	// not just the mean — VBR video buffers at the frame scale but should
	// not queue for seconds behind ftp. ftp's weight only matters while
	// everyone is backlogged; it soaks up all idle capacity regardless.
	weights := map[int]float64{
		flowVideo:  units.Mbps(2.2),
		flowAudio:  units.Kbps(64),
		flowTelnet: units.Kbps(16),
		flowFTP:    units.Kbps(200),
	}
	names := map[int]string{
		flowVideo: "video", flowAudio: "audio", flowTelnet: "telnet", flowFTP: "ftp",
	}
	for f, w := range weights {
		must(s.AddFlow(f, w))
	}

	sink := sim.NewSink(q)
	link := sim.NewLink(q, "uplink", s, server.NewConstantRate(units.Mbps(2.5)), sink)
	mon := sim.MonitorAll(link)

	// VBR video: synthetic MPEG at 1.21 Mb/s, 200 B packets.
	trace := vbr.Generate(vbr.Config{MeanRate: units.Mbps(1.21)}, int(24*duration)+24, rng)
	(&vbr.Source{Q: q, Out: link, Flow: flowVideo, Trace: trace,
		PktBytes: 200, Start: 0, Stop: duration}).Run()

	// Interactive audio: 64 Kb/s CBR in 160 B frames (20 ms voice).
	(&source.CBR{Q: q, Out: link, Flow: flowAudio, Rate: units.Kbps(64),
		PktBytes: 160, Start: 0, Stop: duration}).Run()

	// Telnet: sparse Poisson keystroke echo packets.
	(&source.Poisson{Q: q, Out: link, Flow: flowTelnet, Rate: units.Kbps(8),
		PktBytes: 64, Start: 0, Stop: duration,
		Rng: rand.New(rand.NewSource(rng.Int63()))}).Run()

	// FTP: greedy bulk transfer that soaks up whatever is left.
	(&source.Bulk{Q: q, Link: link, Flow: flowFTP, PktBytes: 1000,
		Budget: units.Mbps(2.5) * duration, Window: 16000}).Run()

	q.Run()

	fmt.Printf("2.5 Mb/s SFQ link, %v s of traffic:\n\n", duration)
	fmt.Printf("%-7s %10s %10s %10s %10s\n", "flow", "Mb/s", "avg ms", "p99 ms", "max ms")
	for _, f := range []int{flowVideo, flowAudio, flowTelnet, flowFTP} {
		d := mon.QueueDelay(f)
		fmt.Printf("%-7s %10.3f %10.2f %10.2f %10.2f\n",
			names[f],
			units.ToMbps(mon.ServiceCurve(f).Delta(0, duration)/duration),
			units.ToMillis(d.Mean()),
			units.ToMillis(d.Percentile(99)),
			units.ToMillis(d.Max()))
	}
	fmt.Println("\nnote: audio and telnet ride at millisecond delays while ftp fills the")
	fmt.Println("leftover bandwidth — the §1.1 requirements in one run.")
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
