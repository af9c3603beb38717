package sched

import (
	"fmt"
	"sort"
	"sync"
)

// TieBreak selects the order of packets whose start tags are equal in the
// SFQ family (Section 2.3: "ties are broken arbitrarily; some tie breaking
// rules may be more desirable than others"). It lives here (rather than in
// internal/core) so the shared Config can carry it; internal/core aliases
// it for compatibility.
type TieBreak int

// Tie-breaking rules.
const (
	// TieFIFO breaks ties in arrival order (the default).
	TieFIFO TieBreak = iota
	// TieLowWeightFirst prefers the packet whose effective rate is
	// smaller, giving interactive low-throughput flows lower average
	// delay as suggested in Section 2.3.
	TieLowWeightFirst
)

// Config is the shared construction parameter set for every scheduling
// discipline. A discipline reads the fields it cares about and ignores the
// rest, so one options vocabulary covers the whole registry instead of the
// former per-constructor zoo (NewWFQ(assumedCap), NewDRR(quantum), ...).
type Config struct {
	// AssumedCapacity is the fluid reference capacity C (bytes/s) that
	// WFQ/FQS simulate GPS at. Required (> 0) for those disciplines; it is
	// exactly the assumption that breaks their fairness on variable-rate
	// links (Example 2).
	AssumedCapacity float64

	// Quantum is DRR's bytes of credit per unit weight per round. 0 means
	// DefaultQuantum.
	Quantum float64

	// Tie is the SFQ-family tie-breaking rule.
	Tie TieBreak

	// Clock selects runtime-driven construction: when non-nil, New hands
	// the build to the registered runtime builder (internal/rt), which
	// wraps the discipline in a goroutine-safe driver that reads "now"
	// from this clock instead of trusting the caller's argument. Nil (the
	// default) builds the bare discipline for simulator-driven use.
	Clock Clock

	// Shards is the number of per-core scheduler instances the runtime
	// builder creates, with flows hashed across them. 0 means unsharded
	// (equivalent to 1). Sharding only makes sense runtime-driven, so
	// Shards > 1 without a Clock is rejected with ErrBadConfig, as is a
	// negative count.
	Shards int

	// Tree is a hierarchical composition spec for the "hier" scheduler —
	// the internal/hier grammar, e.g. "sfq(drr*2,edd)". Disciplines other
	// than the tree layer ignore it; composed names like
	// "hier:sfq(drr,edd)" carry the spec in the name instead.
	Tree string
}

// DefaultQuantum is the DRR quantum per unit weight used when Config.Quantum
// is zero: one Ethernet MTU, so unit-weight flows of MTU-sized packets get
// one packet per round.
const DefaultQuantum = 1500

// Option mutates a Config. The With* helpers are the supported options.
type Option func(*Config)

// WithAssumedCapacity sets the GPS reference capacity for WFQ/FQS.
func WithAssumedCapacity(c float64) Option { return func(cfg *Config) { cfg.AssumedCapacity = c } }

// WithQuantum sets DRR's per-unit-weight quantum in bytes.
func WithQuantum(q float64) Option { return func(cfg *Config) { cfg.Quantum = q } }

// WithTieBreak sets the SFQ-family tie-breaking rule.
func WithTieBreak(t TieBreak) Option { return func(cfg *Config) { cfg.Tie = t } }

// WithClock selects runtime-driven construction reading time from c (see
// Config.Clock). Requires internal/rt to be imported so the runtime
// builder is registered.
func WithClock(c Clock) Option { return func(cfg *Config) { cfg.Clock = c } }

// WithShards sets the number of hashed per-core shards for runtime-driven
// construction (see Config.Shards).
func WithShards(n int) Option { return func(cfg *Config) { cfg.Shards = n } }

// WithTree sets the hierarchical composition spec for the "hier"
// scheduler (see Config.Tree).
func WithTree(spec string) Option { return func(cfg *Config) { cfg.Tree = spec } }

// Factory constructs a scheduler from a Config. Factories validate the
// fields they consume and return an error (never panic) on a bad Config.
type Factory func(Config) (Interface, error)

// registry maps discipline names to factories. Guarded by a mutex only for
// the init-time writes; lookups after init are read-only.
var registry = struct {
	sync.RWMutex
	m map[string]Factory
}{m: make(map[string]Factory)}

// Register adds a discipline under name (and optional aliases). Adding a
// scheduler to the repository is now a one-file change: implement
// Interface, call Register from an init function, and every consumer — the
// conformance matrix, sfqsim, the experiments — can construct it by name.
// Registering a duplicate name panics: it is a programming error that
// would otherwise silently shadow a discipline.
func Register(name string, f Factory, aliases ...string) {
	if f == nil {
		panic("sched: Register with nil factory")
	}
	registry.Lock()
	defer registry.Unlock()
	for _, n := range append([]string{name}, aliases...) {
		if _, dup := registry.m[n]; dup {
			panic(fmt.Sprintf("sched: duplicate scheduler registration %q", n))
		}
		registry.m[n] = f
	}
}

// RuntimeBuilder constructs a runtime-driven scheduler: a goroutine-safe
// Interface wrapping cfg.Shards instances of the named discipline, driven
// by cfg.Clock. internal/rt registers the only implementation from its
// init; the indirection keeps sched free of any dependency on the runtime
// while letting one registry name construct either flavor.
type RuntimeBuilder func(name string, cfg Config) (Interface, error)

var runtimeBuilder RuntimeBuilder

// RegisterRuntimeBuilder installs the runtime builder New delegates to
// when a Config carries a Clock or Shards. Calling it twice panics, like a
// duplicate discipline registration.
func RegisterRuntimeBuilder(b RuntimeBuilder) {
	if b == nil {
		panic("sched: RegisterRuntimeBuilder with nil builder")
	}
	registry.Lock()
	defer registry.Unlock()
	if runtimeBuilder != nil {
		panic("sched: duplicate runtime builder registration")
	}
	runtimeBuilder = b
}

// BuildConfig applies opts to a zero Config. Runtime builders use it to
// read the Clock/Shards the caller asked for before constructing the
// per-shard disciplines.
func BuildConfig(opts ...Option) Config {
	var cfg Config
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}

// New constructs the named discipline with the given options applied to a
// zero Config. The name must have been registered (internal/core registers
// the SFQ family from its init, so callers constructing "sfq"/"hsfq"/...
// must import internal/core, directly or transitively); unknown names are
// an ErrBadConfig, so misconfiguration is one errors.Is check regardless
// of which field was wrong.
//
// A Config with a Clock (or Shards > 1) selects runtime-driven
// construction: the same name then yields a goroutine-safe wall-clock
// instance built by internal/rt instead of a bare simulator-driven one.
// Nonsensical combinations — negative shards, sharding without a clock, a
// clock without the runtime package imported — fail with ErrBadConfig.
func New(name string, opts ...Option) (Interface, error) {
	cfg := BuildConfig(opts...)
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("%w: new %q: negative shard count %d", ErrBadConfig, name, cfg.Shards)
	}
	if cfg.Shards > 1 && cfg.Clock == nil {
		return nil, fmt.Errorf("%w: new %q: %d shards without a clock (sharding is a runtime construct; use WithClock)", ErrBadConfig, name, cfg.Shards)
	}
	if cfg.Clock != nil || cfg.Shards > 1 {
		registry.RLock()
		b := runtimeBuilder
		registry.RUnlock()
		if b == nil {
			return nil, fmt.Errorf("%w: new %q: runtime-driven construction requires importing internal/rt", ErrBadConfig, name)
		}
		return b(name, cfg)
	}
	return NewDiscipline(name, cfg)
}

// Fallback resolves a name no registered factory matched, or returns
// (nil, false) to decline. internal/hier registers the only implementation:
// it accepts the open-ended composed-name family ("hier", "hier:<spec>")
// that cannot be enumerated in the registry map.
type Fallback func(name string, cfg Config) (Factory, bool)

var fallback Fallback

// RegisterFallback installs the resolver NewDiscipline consults for names
// the registry map does not contain. Calling it twice panics, like a
// duplicate discipline registration.
func RegisterFallback(fb Fallback) {
	if fb == nil {
		panic("sched: RegisterFallback with nil fallback")
	}
	registry.Lock()
	defer registry.Unlock()
	if fallback != nil {
		panic("sched: duplicate fallback registration")
	}
	fallback = fb
}

// NewDiscipline constructs the bare named discipline from an explicit
// Config, ignoring its Clock/Shards fields — the path runtime builders use
// for each shard (going through New would recurse into the builder).
func NewDiscipline(name string, cfg Config) (Interface, error) {
	registry.RLock()
	f, ok := registry.m[name]
	fb := fallback
	registry.RUnlock()
	if !ok && fb != nil {
		f, ok = fb(name, cfg)
	}
	if !ok {
		return nil, fmt.Errorf("%w: unknown scheduler %q (known: %v)", ErrBadConfig, name, Names())
	}
	cfg.Clock, cfg.Shards = nil, 0
	s, err := f(cfg)
	if err != nil {
		return nil, fmt.Errorf("sched: new %q: %w", name, err)
	}
	return s, nil
}

// Known reports whether name resolves to a discipline factory: registered
// directly, or claimed by the fallback family handler (e.g. the
// open-ended "hier:<spec>" names). It checks name resolution only, not
// that any particular configuration constructs.
func Known(name string) bool {
	registry.RLock()
	_, ok := registry.m[name]
	fb := fallback
	registry.RUnlock()
	if !ok && fb != nil {
		_, ok = fb(name, Config{})
	}
	return ok
}

// MustNew is New for static configurations known to be valid; it panics on
// error.
func MustNew(name string, opts ...Option) Interface {
	s, err := New(name, opts...)
	if err != nil {
		panic(err)
	}
	return s
}

// Names returns every registered name (aliases included), sorted.
func Names() []string {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]string, 0, len(registry.m))
	for n := range registry.m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// init registers this package's disciplines. The paper's own SFQ family is
// registered by internal/core; every tag-based name here builds the one
// Ranked scheduler with its rank function (rankfuncs.go).
func init() {
	Register("scfq", func(cfg Config) (Interface, error) { return NewRanked(RankSCFQ(), cfg) })
	Register("wfq", func(cfg Config) (Interface, error) { return NewRanked(RankWFQ(false), cfg) }) // needs WithAssumedCapacity
	Register("fqs", func(cfg Config) (Interface, error) { return NewRanked(RankWFQ(true), cfg) })
	Register("vclock", func(cfg Config) (Interface, error) { return NewRanked(RankVClock(), cfg) }, "vc")
	Register("edd", func(Config) (Interface, error) { return NewEDD(), nil })
	Register("drr", func(cfg Config) (Interface, error) {
		q := cfg.Quantum
		if q == 0 {
			q = DefaultQuantum
		}
		if !positive(q) {
			return nil, fmt.Errorf("%w: drr quantum %v must be finite and positive", ErrBadConfig, q)
		}
		return NewDRR(q), nil
	})
	Register("fifo", func(cfg Config) (Interface, error) { return NewRanked(RankFIFO(), cfg) })
	Register("fairairport", func(Config) (Interface, error) { return NewFairAirport(), nil }, "fa")
	Register("priority", func(cfg Config) (Interface, error) { return NewRanked(RankPriority(), cfg) })
}
