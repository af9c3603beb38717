//go:build schedassert

package rt

import "sync"

// yielder (debug build) calls hook at every yield point, and turns every
// lock the runtime takes into a TryLock loop that yields while it waits, so
// a test that runs one goroutine at a time and switches only at yields
// (TestInterleavings) never blocks inside a lock and replays a schedule
// from its seed. With no hook installed the locks are plain locks.
type yielder struct{ hook func(site) }

// siteLockWait is a lock found held.
const siteLockWait site = siteClose + 1

func (y *yielder) yield(s site) {
	if y.hook != nil {
		y.hook(s)
	}
}

func (y *yielder) lock(m *sync.Mutex) {
	if y.hook == nil {
		m.Lock()
		return
	}
	for !m.TryLock() {
		y.hook(siteLockWait)
	}
}

func (y *yielder) rlock(m *sync.RWMutex) {
	if y.hook == nil {
		m.RLock()
		return
	}
	for !m.TryRLock() {
		y.hook(siteLockWait)
	}
}

func (y *yielder) wlock(m *sync.RWMutex) {
	if y.hook == nil {
		m.Lock()
		return
	}
	for !m.TryLock() {
		y.hook(siteLockWait)
	}
}
