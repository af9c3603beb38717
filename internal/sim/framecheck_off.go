//go:build !schedassert

package sim

// The released-frame guard of FramePool (framecheck_on.go) is off in the
// release build: these compile to nothing.

func poison(*Frame)            {}
func revive(*Frame)            {}
func checkLive(*Frame, string) {}
