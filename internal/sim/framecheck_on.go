//go:build schedassert

package sim

import (
	"fmt"
	"math"
)

// poison (debug build) marks a frame that went back to its pool with Flow −1
// and Bytes NaN until the pool hands it out again, so a holder that kept it
// past its end is caught by checkLive instead of corrupting a later frame.
func poison(f *Frame) { f.Flow, f.Bytes = -1, math.NaN() }

// revive clears the poison of a frame the pool hands out again.
func revive(f *Frame) { f.Flow, f.Bytes = 0, 0 }

// checkLive panics on a poisoned frame: one released again, or delivered
// after its release.
func checkLive(f *Frame, what string) {
	if f.Flow == -1 && math.IsNaN(f.Bytes) {
		panic(fmt.Sprintf("sim: frame %p %s", f, what))
	}
}
