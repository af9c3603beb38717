package sched

import (
	"fmt"
	"sort"
	"sync"
)

// TieBreak selects the order of packets whose start tags are equal in the
// SFQ family (Section 2.3: "ties are broken arbitrarily; some tie breaking
// rules may be more desirable than others"). It is RankSFQ's parameter;
// the registry names the two rules "sfq" and "sfq-lowweight".
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
// per-discipline constructors it replaced.
type Config struct {
	// AssumedCapacity is the fluid reference capacity C (bytes/s) that
	// WFQ/FQS simulate GPS at. Required (> 0) for those disciplines; it is
	// exactly the assumption that breaks their fairness on variable-rate
	// links (Example 2).
	AssumedCapacity float64

	// Quantum is DRR's bytes of credit per unit weight per round. 0 means
	// DefaultQuantum.
	Quantum float64

	// Clock is the time source of a wall-clock runtime (rt.New), which
	// reads "now" from it instead of trusting a caller's argument. Nil
	// means the monotonic wall clock there. New builds bare disciplines
	// only and refuses a Clock with ErrBadConfig.
	Clock Clock

	// Shards is the number of per-core discipline instances rt.New
	// creates, with flows hashed across them. 0 means unsharded
	// (equivalent to 1). New refuses a value outside {0, 1}.
	Shards int
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

// WithClock sets a runtime's time source (see Config.Clock); rt.New reads
// it, New refuses it.
func WithClock(c Clock) Option { return func(cfg *Config) { cfg.Clock = c } }

// WithShards sets the number of hashed per-core shards of a runtime (see
// Config.Shards); rt.New reads it.
func WithShards(n int) Option { return func(cfg *Config) { cfg.Shards = n } }

// Factory constructs a scheduler from a Config. Factories validate the
// fields they consume and return an error (never panic) on a bad Config.
type Factory func(Config) (Interface, error)

// registry maps discipline names to factories. Guarded by a mutex only for
// the init-time writes; lookups after init are read-only.
var registry = struct {
	sync.RWMutex
	m map[string]Factory
}{m: make(map[string]Factory)}

// Register adds a discipline under name, its one name. Adding a scheduler
// to the repository is a one-file change: implement Interface, call
// Register from an init function, and every consumer — the conformance
// matrix, sfqsim, the experiments — can construct it by name. Registering a
// duplicate name panics: it is a programming error that would otherwise
// silently shadow a discipline.
func Register(name string, f Factory) {
	if f == nil {
		panic("sched: Register with nil factory")
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.m[name]; dup {
		panic(fmt.Sprintf("sched: duplicate scheduler registration %q", name))
	}
	registry.m[name] = f
}

// BuildConfig applies opts to a zero Config. rt.New uses it to read the
// Clock/Shards the caller asked for before building each shard's
// discipline.
func BuildConfig(opts ...Option) Config {
	var cfg Config
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}

// New constructs the named discipline with the given options applied to a
// zero Config: the one way to build a discipline by name. The name must
// have been registered (internal/core registers the SFQ family from its
// init, so callers constructing "sfq"/"hsfq"/... must import internal/core,
// directly or transitively); unknown names are an ErrBadConfig, so
// misconfiguration is one errors.Is check regardless of which field was
// wrong.
//
// New builds the bare, simulator-driven discipline. A wall-clock runtime
// is built by rt.New, which takes the same options; New refuses a Clock,
// or a Shards value other than 0 or 1, with ErrBadConfig naming rt.New.
func New(name string, opts ...Option) (Interface, error) {
	cfg := BuildConfig(opts...)
	if cfg.Clock != nil || cfg.Shards < 0 || cfg.Shards > 1 {
		return nil, fmt.Errorf("%w: new %q: WithClock and WithShards configure a runtime; build it with rt.New", ErrBadConfig, name)
	}
	return NewDiscipline(name, cfg)
}

// Fallback resolves a name no registered factory matched, or returns
// (nil, false) to decline. internal/hier registers the only implementation:
// it accepts the open-ended composed-name family "hier:<spec>", which
// cannot be enumerated in the registry map.
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
// Config, ignoring its Clock/Shards fields. It stays beside New because
// its callers hold a Config, not options: rt.New builds each shard's
// discipline from the runtime's Config, hier builds each interior and sink
// from the tree's, and the benchmark's rt-saturate decorator builds its
// inner discipline from the one it is handed.
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

// Names returns every registered name, sorted.
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
	Register("vclock", func(cfg Config) (Interface, error) { return NewRanked(RankVClock(), cfg) })
	Register("edd", func(Config) (Interface, error) { return EDD{MustNewRanked(RankEDD(), Config{})}, nil })
	Register("drr", func(cfg Config) (Interface, error) {
		q := cfg.Quantum
		if q == 0 {
			q = DefaultQuantum
		}
		if !positive(q) {
			return nil, fmt.Errorf("%w: drr quantum %v must be finite and positive", ErrBadConfig, q)
		}
		return &DRR{quantum: q}, nil
	})
	Register("fifo", func(cfg Config) (Interface, error) { return NewRanked(RankFIFO(), cfg) })
	Register("fairairport", func(Config) (Interface, error) { return &FairAirport{}, nil })
	Register("priority", func(cfg Config) (Interface, error) { return NewRanked(RankPriority(), cfg) })
}
