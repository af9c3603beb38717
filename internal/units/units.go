// Package units provides conversion helpers between the bit-oriented units
// the SFQ paper quotes (Kb/s, Mb/s, milliseconds) and the internal
// representation used throughout this repository: lengths in bytes and rates
// in bytes per second, both as float64, with time in float64 seconds.
package units

// Byte is one byte, the unit of every length.
const Byte = 1.0

// Kbps converts a rate in kilobits per second to bytes per second.
func Kbps(r float64) float64 { return r * 1e3 / 8 }

// Mbps converts a rate in megabits per second to bytes per second.
func Mbps(r float64) float64 { return r * 1e6 / 8 }

// ToKbps converts a rate in bytes per second to kilobits per second.
func ToKbps(bytesPerSec float64) float64 { return bytesPerSec * 8 / 1e3 }

// ToMbps converts a rate in bytes per second to megabits per second.
func ToMbps(bytesPerSec float64) float64 { return bytesPerSec * 8 / 1e6 }

// ToMillis converts seconds to milliseconds.
func ToMillis(s float64) float64 { return s * 1e3 }
