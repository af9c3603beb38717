//go:build !schedassert

package rt

import "sync"

// yielder is the interleaving test's hook into the runtime's locks and
// steps (yield_on.go). In the release build it is empty: yield compiles to
// nothing and the lock helpers to plain lock calls.
type yielder struct{}

func (*yielder) yield(site)            {}
func (*yielder) lock(m *sync.Mutex)    { m.Lock() }
func (*yielder) rlock(m *sync.RWMutex) { m.RLock() }
func (*yielder) wlock(m *sync.RWMutex) { m.Lock() }
