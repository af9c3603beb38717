//go:build !schedassert

package sched

// pushAssert is the per-flow tag-monotonicity assertion of FlowQ.Push. In
// the release build it is empty and its methods compile to nothing, so
// every flow record is 32 bytes smaller; build with -tags schedassert to
// turn the check on (assert_on.go).
type pushAssert struct{}

func (pushAssert) check(*FlowQ, flowItem) {}
func (pushAssert) reset()                 {}

// assertZeroChunk is ChunkPool.put's zeroed-chunk check, off in the release
// build (assert_on.go).
func assertZeroChunk(*flowChunk) {}
