package units

import (
	"math"
	"testing"
)

func TestRateConversions(t *testing.T) {
	if Kbps(64) != 8000 {
		t.Errorf("Kbps(64) = %v, want 8000 B/s", Kbps(64))
	}
	if Mbps(100) != 12.5e6 {
		t.Errorf("Mbps(100) = %v", Mbps(100))
	}
	if got := ToMbps(Mbps(2.5)); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("round trip Mbps = %v", got)
	}
	if got := ToKbps(Kbps(32)); math.Abs(got-32) > 1e-12 {
		t.Errorf("round trip Kbps = %v", got)
	}
}

func TestTimeConversions(t *testing.T) {
	if ToMillis(0.25) != 250 {
		t.Errorf("ToMillis = %v", ToMillis(0.25))
	}
}
