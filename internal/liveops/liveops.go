// Package liveops implements live operations on running schedulers:
// versioned, digest-pinned snapshot/restore envelopes (fail over a link
// into a fresh process without dropping its schedule), payload sidecars,
// and mid-run scheduler replacement (Swapper).
//
// The paper's self-clocked design is what makes all of this well-posed:
// SFQ's fairness (Theorem 1) holds for any service the scheduler
// receives, so pausing a link at an arbitrary event, moving its state,
// and resuming — or changing weights mid-backlog — never breaks the
// post-change fairness bounds. The snapshot machinery itself lives with
// each discipline (sched.Snapshotter); this package wraps it in a
// self-validating envelope and the operational choreography around it.
package liveops

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/sched"
	"repro/internal/statecodec"
)

// Version is the envelope format version this package writes.
const Version = 1

// Envelope is the on-disk snapshot format: a version, the scheduler's
// state kind (restore refuses a mismatched discipline), the SHA-256 of
// the state bytes (restore refuses tampering or truncation before the
// per-discipline validators even run), and the state itself. The json
// tags document the format; internal/statecodec reads and writes it.
type Envelope struct {
	Version int    `json:"version"`
	Kind    string `json:"kind"`
	SHA256  string `json:"sha256"`
	// Time is the wall-clock instant of the capture (0 when unknown).
	// Discipline state contains wall-clock quantities — monotonicity
	// guards, Virtual Clock EAT chains, EDD deadlines — so a process
	// restoring into a fresh clock must resume its time base at or after
	// Time (cmd/sfqsim offsets its whole event script by it).
	Time float64 `json:"time,omitempty"`
	// State is the scheduler's state document, verbatim: the bytes the
	// digest covers. Written in place (appendState), not encoded as a JSON
	// string.
	State       []byte `json:"state"`
	appendState func([]byte) ([]byte, error)
}

func (env *Envelope) codec(c *statecodec.Codec) {
	c.Int("version", &env.Version)
	c.String("kind", &env.Kind)
	c.String("sha256", &env.SHA256)
	c.FloatOmit("time", &env.Time)
	c.Raw("state", &env.State, env.appendState)
}

// digestHole holds the digest's place while the state after it is written.
const digestHole = "0000000000000000000000000000000000000000000000000000000000000000"

// Snapshot captures s into a self-validating envelope with no recorded
// capture time — for restores that keep the original time base (failover
// inside one simulation). Payloads of queued packets are NOT captured —
// carry them with CapturePayloads.
func Snapshot(s sched.Snapshotter) ([]byte, error) { return AppendSnapshotAt(nil, 0, s) }

// SnapshotAt is Snapshot with the capture instant recorded in the
// envelope, for restores into a process whose clock restarts.
func SnapshotAt(now float64, s sched.Snapshotter) ([]byte, error) {
	return AppendSnapshotAt(nil, now, s)
}

// AppendSnapshotAt appends SnapshotAt's envelope to b in one pass: the
// header with a placeholder digest, the state written in place, then the
// digest of the state's bytes filled in over the placeholder, the last one
// before the state (only the capture time and the "state" key follow it).
func AppendSnapshotAt(b []byte, now float64, s sched.Snapshotter) ([]byte, error) {
	var start, end int
	env := Envelope{Version: Version, Kind: s.StateKind(), SHA256: digestHole, Time: now}
	env.appendState = func(b []byte) ([]byte, error) {
		start = len(b)
		b, err := s.AppendState(b)
		end = len(b)
		return b, err
	}
	out, err := statecodec.Encode(b, &env, (*Envelope).codec)
	if err != nil {
		return b, err
	}
	sum := sha256.Sum256(out[start:end])
	hex.Encode(out[bytes.LastIndex(out[:start], []byte(digestHole)):], sum[:])
	return out, nil
}

// Peek decodes and digest-checks an envelope without restoring it, for
// callers that need its metadata (Kind, Time) before building a scheduler.
// The returned State is a slice of data, checked for JSON syntax only.
func Peek(data []byte) (*Envelope, error) {
	var env Envelope
	if err := statecodec.Decode(data, &env, (*Envelope).codec); err != nil {
		return nil, fmt.Errorf("%w: envelope: %v", sched.ErrBadState, err)
	}
	if env.Version != Version {
		return nil, fmt.Errorf("%w: envelope version %d, want %d", sched.ErrBadState, env.Version, Version)
	}
	sum := sha256.Sum256(env.State)
	if hex.EncodeToString(sum[:]) != env.SHA256 {
		return nil, fmt.Errorf("%w: envelope digest mismatch", sched.ErrBadState)
	}
	return &env, nil
}

// Restore loads an envelope produced by Snapshot into s, which must be a
// freshly constructed scheduler of the same kind. The envelope's version,
// kind, and digest are checked before any state reaches the scheduler;
// every failure wraps sched.ErrBadState and leaves s unusable (discard
// it), never holding a half-loaded schedule it would serve from.
func Restore(data []byte, s sched.Snapshotter) error {
	env, err := Peek(data)
	if err != nil {
		return err
	}
	if env.Kind != s.StateKind() {
		return fmt.Errorf("%w: envelope kind %q does not match scheduler kind %q", sched.ErrBadState, env.Kind, s.StateKind())
	}
	return s.RestoreState(env.State)
}

// CapturePayloads collects the queued packets' opaque payloads in the
// scheduler's canonical VisitQueued order — the sidecar that travels next
// to a snapshot (payloads are process-local values, so the envelope
// itself never contains them).
func CapturePayloads(s sched.Snapshotter) []any {
	var out []any
	s.VisitQueued(func(p *sched.Packet) { out = append(out, p.Payload) })
	return out
}

// AttachPayloads reattaches a CapturePayloads sidecar onto a restored
// scheduler's queued packets, in the same canonical order. The counts
// must match exactly.
func AttachPayloads(s sched.Snapshotter, payloads []any) error {
	i := 0
	s.VisitQueued(func(p *sched.Packet) {
		if i < len(payloads) {
			p.Payload = payloads[i]
		}
		i++
	})
	if i != len(payloads) {
		return fmt.Errorf("%w: %d payloads for %d queued packets", sched.ErrBadState, len(payloads), i)
	}
	return nil
}

// Clone snapshots src and restores it — state, then payload sidecar —
// into a fresh scheduler built by mk, returning the replica. This is the
// kill-and-restore failover primitive: the replica continues the schedule
// bit-identically (the conformance suite pins this for every discipline).
func Clone(src sched.Snapshotter, mk func() sched.Interface) (sched.Interface, error) {
	data, err := Snapshot(src)
	if err != nil {
		return nil, err
	}
	payloads := CapturePayloads(src)
	fresh := mk()
	snap, ok := fresh.(sched.Snapshotter)
	if !ok {
		return nil, fmt.Errorf("%w: replacement %T does not support snapshots", sched.ErrBadState, fresh)
	}
	if err := Restore(data, snap); err != nil {
		return nil, err
	}
	if err := AttachPayloads(snap, payloads); err != nil {
		return nil, err
	}
	return fresh, nil
}
