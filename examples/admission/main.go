// Admission: both halves of the paper's guarantees, end to end on the
// real-time runtime. The control plane is the reservation controller —
// flows ask for rates and delay bounds, and a flow is admitted only while
// Σ r <= C holds and every earlier flow's Theorem-4 delay promise stays
// intact. The data plane is the rt.Admitter facade (shaped like k8s API
// Priority & Fairness): admitted flows submit requests to a concurrency-
// limited fair queue, and seats are dispatched in the discipline's
// schedule order, so the reserved rates become actual service shares.
//
// Run with: go run ./examples/admission
package main

import (
	"fmt"
	"log"

	"repro/internal/admission"
	_ "repro/internal/core" // registers sfq
	"repro/internal/rt"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/units"
)

func main() {
	c := units.Mbps(2)
	ctrl := admission.NewController(server.FCParams{C: c, Delta: 0})

	// Data path: a single-shard SFQ runtime on a frozen manual clock, so
	// the dispatch order below is exactly the tag order of eqs (4)-(5) and
	// the run is deterministic. (A server would use rt.WallClock() and
	// more shards, as bench/w_rtsat.go and bench/w_rtopen.go do.)
	clock := &sched.ManualClock{}
	runtime, err := rt.New("sfq", sched.WithClock(clock))
	if err != nil {
		log.Fatal(err)
	}
	adm, err := rt.NewAdmitter(rt.AdmitterConfig{Runtime: runtime, Limit: 1, Controller: ctrl})
	if err != nil {
		log.Fatal(err)
	}

	// Control plane: AdmitFlow runs each request through the controller's
	// Σ r <= C and Theorem-4 checks; a refused flow never reaches the fair
	// queue.
	requests := []admission.Request{
		{Flow: 1, Rate: units.Kbps(64), LMax: 160, MaxDelay: 0.011}, // audio: 11 ms
		{Flow: 2, Rate: units.Mbps(1.2), LMax: 1000},                // video
		{Flow: 3, Rate: units.Kbps(500), LMax: 1000},                // data
		{Flow: 4, Rate: units.Mbps(0.5), LMax: 1000},                // refused: rate
		{Flow: 5, Rate: units.Kbps(100), LMax: 9000},                // refused: breaks audio's promise
		{Flow: 6, Rate: units.Kbps(100), LMax: 500},                 // fits
	}
	var admitted []admission.Request
	for _, req := range requests {
		if err := adm.AdmitFlow(req); err != nil {
			fmt.Printf("flow %d (r=%6.0f B/s, lmax=%4.0f): REFUSED — %v\n",
				req.Flow, req.Rate, req.LMax, err)
			continue
		}
		fmt.Printf("flow %d (r=%6.0f B/s, lmax=%4.0f): admitted\n", req.Flow, req.Rate, req.LMax)
		admitted = append(admitted, req)
	}
	fmt.Printf("\nreserved %.0f of %.0f B/s; delay promises (Theorem 4):\n", ctrl.Reserved(), c)
	for _, req := range admitted {
		bound, err := adm.DelayBound(req.Flow)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  flow %d: %.2f ms\n", req.Flow, units.ToMillis(bound))
	}

	// Data plane: each admitted flow submits a burst of requests (cost =
	// its l^max), dispatch paused so everything queues at virtual time 0.
	// Requests wait in SFQ start-tag order — the admitted *rates* decide
	// who runs — and every Finish hands the seat to the next request.
	if err := adm.SetLimit(0); err != nil {
		log.Fatal(err)
	}
	const perFlow = 200
	var tickets []*rt.Ticket
	for _, req := range admitted {
		for i := 0; i < perFlow; i++ {
			tk, err := adm.Submit(req.Flow, req.LMax)
			if err != nil {
				log.Fatal(err)
			}
			tickets = append(tickets, tk)
		}
	}
	if err := adm.SetLimit(1); err != nil { // one seat: a strict serial order
		log.Fatal(err)
	}
	var order []int
	for len(order) < len(tickets) {
		var running *rt.Ticket
		for _, tk := range tickets {
			if tk.Running() {
				running = tk
			}
		}
		if running == nil {
			log.Fatal("no request holds the seat")
		}
		order = append(order, running.Flow())
		if err := running.Finish(); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Printf("\nfirst 24 dispatches (1 seat, fair order): %v\n", order[:24])

	// Theorem 1 speaks about intervals where flows stay backlogged, so
	// measure shares over the prefix before any flow runs out of requests.
	lmax := make(map[int]float64)
	for _, req := range admitted {
		lmax[req.Flow] = req.LMax
	}
	count := make(map[int]int)
	bytes := make(map[int]float64)
	var total float64
	prefix := 0
	for _, f := range order {
		count[f]++
		bytes[f] += lmax[f]
		total += lmax[f]
		prefix++
		if count[f] == perFlow {
			break // flow f's backlog is gone; the shared interval ends
		}
	}
	fmt.Printf("shares over the first %d dispatches (all flows backlogged):\n", prefix)
	fmt.Printf("%-6s %10s %12s %12s\n", "flow", "dispatched", "byte share", "rate share")
	for _, req := range admitted {
		fmt.Printf("%-6d %10d %11.1f%% %11.1f%%\n",
			req.Flow, count[req.Flow], 100*bytes[req.Flow]/total, 100*req.Rate/ctrl.Reserved())
	}
	// While every flow is backlogged, SFQ's Theorem 1 bound makes the byte
	// shares track the reserved-rate shares — the admission controller's
	// promises carried through the runtime data path. (All tickets finish;
	// the ledger-keeping runtime served exactly perFlow requests per flow.)
	for _, req := range admitted {
		if got := runtime.FlowAccount(req.Flow).Dequeued; got != perFlow {
			log.Fatalf("flow %d served %d of %d", req.Flow, got, perFlow)
		}
	}
}
