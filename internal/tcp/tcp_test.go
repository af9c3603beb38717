package tcp_test

import (
	"testing"

	"repro/internal/eventq"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// conn wires a sender and receiver through forward/reverse links.
type conn struct {
	q        *eventq.Queue
	snd      *tcp.Sender
	rcv      *tcp.Receiver
	fwd, rev *sim.Link
}

// newConn builds sender → fwd link → receiver → rev link → sender.
func newConn(t *testing.T, rate, bufferBytes float64, limit int64) *conn {
	t.Helper()
	q := &eventq.Queue{}
	fsch := sched.MustNew("fifo")
	rsch := sched.MustNew("fifo")
	if err := fsch.AddFlow(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := rsch.AddFlow(1, 1); err != nil {
		t.Fatal(err)
	}
	snd := &tcp.Sender{Q: q, Flow: 1, MSS: 100, Limit: limit}
	rev := sim.NewLink(q, "rev", rsch, server.NewConstantRate(rate*10), snd)
	rev.PropDelay = 0.005
	rcv := tcp.NewReceiver(q, rev, 1)
	fwd := sim.NewLink(q, "fwd", fsch, server.NewConstantRate(rate), rcv)
	fwd.PropDelay = 0.005
	fwd.BufferBytes = bufferBytes
	snd.Out = fwd
	return &conn{q: q, snd: snd, rcv: rcv, fwd: fwd, rev: rev}
}

func TestTransferCompletesNoLoss(t *testing.T) {
	c := newConn(t, 1000, 0, 200) // unbounded buffer
	c.snd.Run()
	c.q.Run()
	if !c.snd.Done() {
		t.Fatal("transfer did not complete")
	}
	if c.snd.Retransmissions() != 0 || c.snd.Timeouts() != 0 {
		t.Errorf("lossless run had %d retransmissions, %d timeouts",
			c.snd.Retransmissions(), c.snd.Timeouts())
	}
	if c.rcv.Expected() != 201 {
		t.Errorf("receiver expected = %d, want 201", c.rcv.Expected())
	}
	// 200 segments × 100 B at 1000 B/s = 20 s of pure transmission;
	// ack-clocking adds little once the window opens.
	if c.snd.FinishedAt() > 25 {
		t.Errorf("transfer took %v s, want ≈ 20", c.snd.FinishedAt())
	}
}

func TestSlowStartGrowth(t *testing.T) {
	c := newConn(t, 100000, 0, 0) // fast link, unlimited data
	c.snd.Run()
	// After ~1 s (≈ 80 RTTs of 12 ms) with no loss the window should be
	// wide open.
	c.q.RunUntil(1)
	if c.snd.Cwnd() < 32 {
		t.Errorf("cwnd after 1 s lossless = %v, want to have opened well beyond 32", c.snd.Cwnd())
	}
	if c.snd.Cwnd() > tcp.DefaultMaxCwnd {
		t.Errorf("cwnd %v exceeds the cap", c.snd.Cwnd())
	}
}

func TestLossRecoveryCompletes(t *testing.T) {
	c := newConn(t, 1000, 400, 300) // tight buffer forces drops
	c.snd.Run()
	c.q.Run()
	if !c.snd.Done() {
		t.Fatalf("transfer did not complete; cwnd=%v sent=%d", c.snd.Cwnd(), c.snd.Sent())
	}
	if c.fwd.Drops() == 0 {
		t.Error("expected drops with a 4-packet buffer")
	}
	if c.snd.Retransmissions() == 0 {
		t.Error("drops should force retransmissions")
	}
	if c.rcv.Expected() != 301 {
		t.Errorf("receiver expected = %d, want 301", c.rcv.Expected())
	}
}

func TestCongestionKeepsGoodput(t *testing.T) {
	c := newConn(t, 1000, 500, 0)
	c.snd.Run()
	c.q.RunUntil(60)
	// Goodput (in-order delivered) should be a healthy fraction of the
	// 10 segments/s the link can carry.
	goodput := float64(c.rcv.Expected()-1) * 100 / 60
	if goodput < 700 {
		t.Errorf("goodput = %v B/s on a 1000 B/s link", goodput)
	}
}

func TestTwoFlowsShareFairly(t *testing.T) {
	q := &eventq.Queue{}
	fsch := sched.MustNew("fifo")
	rsch := sched.MustNew("fifo")
	for f := 1; f <= 2; f++ {
		if err := fsch.AddFlow(f, 1); err != nil {
			t.Fatal(err)
		}
		if err := rsch.AddFlow(f, 1); err != nil {
			t.Fatal(err)
		}
	}
	var snds []*tcp.Sender
	demux := make(map[int]sim.Consumer)
	rev := sim.NewLink(q, "rev", rsch, server.NewConstantRate(100000), sim.ConsumerFunc(func(f *sim.Frame) {
		demux[f.Flow].Deliver(f)
	}))
	rev.PropDelay = 0.005
	rcvs := make(map[int]*tcp.Receiver)
	fwd := sim.NewLink(q, "fwd", fsch, server.NewConstantRate(2000), sim.ConsumerFunc(func(f *sim.Frame) {
		rcvs[f.Flow].Deliver(f)
	}))
	fwd.PropDelay = 0.005
	fwd.BufferBytes = 1000
	for f := 1; f <= 2; f++ {
		snd := &tcp.Sender{Q: q, Out: fwd, Flow: f, MSS: 100}
		snds = append(snds, snd)
		demux[f] = snd
		rcvs[f] = tcp.NewReceiver(q, rev, f)
		snd.Run()
	}
	q.RunUntil(120)
	g1 := float64(rcvs[1].Expected() - 1)
	g2 := float64(rcvs[2].Expected() - 1)
	if g1 == 0 || g2 == 0 {
		t.Fatalf("starvation: %v vs %v", g1, g2)
	}
	ratio := g1 / g2
	if ratio < 0.4 || ratio > 2.5 {
		t.Errorf("long-run TCP share ratio = %v, want within [0.4, 2.5]", ratio)
	}
	util := (g1 + g2) * 100 / 120 / 2000
	if util < 0.7 {
		t.Errorf("utilization = %v, want >= 0.7", util)
	}
}

func TestReceiverReordering(t *testing.T) {
	q := &eventq.Queue{}
	var acks []int64
	out := sim.ConsumerFunc(func(f *sim.Frame) { acks = append(acks, f.Seq) })
	r := tcp.NewReceiver(q, out, 1)
	for _, seq := range []int64{1, 3, 4, 2, 2} { // gap, then fill, then dup
		r.Deliver(&sim.Frame{Flow: 1, Seq: seq, Bytes: 100, Kind: sim.Data})
	}
	want := []int64{2, 2, 2, 5, 5}
	if len(acks) != len(want) {
		t.Fatalf("acks = %v", acks)
	}
	for i := range want {
		if acks[i] != want[i] {
			t.Errorf("ack %d = %d, want %d", i, acks[i], want[i])
		}
	}
	if r.Received() != 5 || r.Expected() != 5 {
		t.Errorf("received=%d expected=%d", r.Received(), r.Expected())
	}
}

func TestReceiverIgnoresNonData(t *testing.T) {
	q := &eventq.Queue{}
	n := 0
	r := tcp.NewReceiver(q, sim.ConsumerFunc(func(f *sim.Frame) { n++ }), 1)
	r.Deliver(&sim.Frame{Flow: 1, Seq: 1, Kind: sim.Ack})
	if n != 0 || r.Received() != 0 {
		t.Error("receiver should ignore ack frames")
	}
}

func TestSenderValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid sender accepted")
		}
	}()
	(&tcp.Sender{}).Run()
}
