package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// sweep runs run(0) … run(n−1), the independent runs of one experiment, on
// min(n, GOMAXPROCS) goroutines that take indices in order from a shared
// counter; with one, in order on the caller's goroutine. A run must share
// no rng, monitor or other state with another and write only its own slot
// of a slice the caller owns; the caller renders from the slots afterwards,
// in index order, so the output is the same however the runs interleave.
// Put the longest run first: it then never starts last. A run's panic
// reaches the caller, as from a plain loop: sweep re-raises it once every
// worker has stopped.
func sweep(n int, run func(i int)) {
	workers := min(n, runtime.GOMAXPROCS(0))
	if workers <= 1 {
		for i := 0; i < n; i++ {
			run(i)
		}
		return
	}
	var next atomic.Int64
	panics := make([]any, n)
	work := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			func() {
				defer func() { panics[i] = recover() }()
				run(i)
			}()
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() { defer wg.Done(); work() }()
	}
	work()
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}
