package cfgtag

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"cfgtag/internal/aot"
	"cfgtag/internal/runtime"
	"cfgtag/internal/stream"
)

// ErrInvalidConfig is the sentinel wrapped by every configuration
// rejection — PlatformConfig.Validate, PipelineConfig negatives, tenant
// quotas. Test with errors.Is.
var ErrInvalidConfig = runtime.ErrInvalidConfig

// ConfigError names the invalid field behind an ErrInvalidConfig.
type ConfigError = runtime.ConfigError

// ErrUnknownTenant is returned by Platform operations naming a tenant not
// in the config. Test with errors.Is.
var ErrUnknownTenant = runtime.ErrUnknownTenant

// ErrQuotaExceeded is returned by Platform.Send when the chunk would
// violate the tenant's quota (MaxStreams or BytesPerSec); nothing is
// enqueued. Test with errors.Is.
var ErrQuotaExceeded = runtime.ErrQuotaExceeded

// ErrPlatformClosed is returned by every Platform operation — including
// a second Close — once the platform has been closed. Close is
// idempotent and safe to race: exactly one caller performs the shutdown,
// the rest observe this error. Test with errors.Is.
var ErrPlatformClosed = errors.New("cfgtag: platform closed")

// Duration is a time.Duration that unmarshals from JSON as either a
// number of nanoseconds or a Go duration string ("30s", "1ms", "-1ns").
type Duration time.Duration

// UnmarshalJSON accepts 5000000, "5ms", etc.
func (d *Duration) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("invalid duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return err
	}
	*d = Duration(n)
	return nil
}

// MarshalJSON renders the duration as its Go string form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// QuotaConfig bounds one tenant's resource consumption; zero values are
// unlimited.
type QuotaConfig struct {
	// MaxStreams caps the tenant's concurrently live streams. Unlike the
	// per-shard MaxStreams knob (which evicts), the quota rejects the new
	// stream at Send with ErrQuotaExceeded.
	MaxStreams int `json:"max_streams,omitempty"`
	// BytesPerSec caps the tenant's sustained Send rate with a one-second
	// burst; Sends beyond it fail with ErrQuotaExceeded.
	BytesPerSec int64 `json:"bytes_per_sec,omitempty"`
	// MemBudgetBytes caps the tenant's estimated live memory — dispatch
	// arenas, stream buffers, DFA cache, Earley charts — rejecting Sends
	// with ErrResourceExhausted while the gauge is at or over budget.
	MemBudgetBytes int64 `json:"mem_budget_bytes,omitempty"`
}

// LimitsConfig bounds each stream's backend resources declaratively; see
// StreamLimits for semantics. Zero values are unlimited.
type LimitsConfig struct {
	MaxBufferBytes    int `json:"max_buffer_bytes,omitempty"`
	MaxPendingMatches int `json:"max_pending_matches,omitempty"`
	MaxChartItems     int `json:"max_chart_items,omitempty"`
	MaxWorkPerByte    int `json:"max_work_per_byte,omitempty"`
}

// TenantDef declares one tenant in a PlatformConfig: a name, a grammar
// (inline source or a file path), compile options, the execution backend
// and the pipeline/quota knobs. Zero values select the defaults
// documented on PipelineConfig.
type TenantDef struct {
	// Name identifies the tenant; required, unique within the config.
	Name string `json:"name"`
	// Grammar is the inline Lex/Yacc-style grammar source. Exactly one of
	// Grammar and GrammarFile must be set.
	Grammar string `json:"grammar,omitempty"`
	// GrammarFile is a path to the grammar source, read at Platform
	// construction (and at each SIGHUP-style reload from file).
	GrammarFile string `json:"grammar_file,omitempty"`
	// Options are compile options by name: "free-running-start",
	// "no-context-duplication", "no-longest-match", "all-enabled",
	// "recover-restart", "recover-resync".
	Options []string `json:"options,omitempty"`
	// Backend selects the execution path: "stream" (default), "dfa",
	// "aot", "gates", "parser" or "earley". The aot path determinizes
	// the grammar to closure at tenant construction (and at each Reload)
	// — compile once per version, amortized over every stream — and
	// fails construction when the grammar does not close within the
	// default state budget.
	Backend string `json:"backend,omitempty"`
	// Shards is the tenant's pipeline width (0 = GOMAXPROCS).
	Shards int `json:"shards,omitempty"`
	// Queue is each shard's input queue depth in batches (0 = 64).
	Queue int `json:"queue,omitempty"`
	// MaxStreams caps live streams per shard with LRU eviction (0 =
	// unlimited); see also Quota.MaxStreams for the rejecting cap.
	MaxStreams int `json:"max_streams,omitempty"`
	// Quarantine is the faulted-stream rejection TTL ("30s"; negative
	// disables, zero selects the default).
	Quarantine Duration `json:"quarantine,omitempty"`
	// BatchBytes is the dispatch-coalescing target (0 = 64 KiB, negative
	// disables coalescing).
	BatchBytes int `json:"batch_bytes,omitempty"`
	// SinkAttempts, SinkBackoff and SinkWorkers tune delivery (see
	// PipelineConfig).
	SinkAttempts int      `json:"sink_attempts,omitempty"`
	SinkBackoff  Duration `json:"sink_backoff,omitempty"`
	SinkWorkers  int      `json:"sink_workers,omitempty"`
	// SendTimeout switches the tenant's Sends from backpressure to load
	// shedding with ErrOverloaded (see PipelineConfig.SendTimeout:
	// 0 = block, "-1ns" = shed immediately, positive = bounded wait).
	SendTimeout Duration `json:"send_timeout,omitempty"`
	// ShedHighWater is the queue depth where shed mode engages (0 = full
	// queue capacity).
	ShedHighWater int `json:"shed_high_water,omitempty"`
	// FeedDeadline arms the backend watchdog (see
	// PipelineConfig.FeedDeadline; 0 = disabled).
	FeedDeadline Duration `json:"feed_deadline,omitempty"`
	// Limits bounds each stream's backend resources (see LimitsConfig).
	Limits LimitsConfig `json:"limits,omitempty"`
	// Quota bounds the tenant's admission (see QuotaConfig).
	Quota QuotaConfig `json:"quota,omitempty"`
}

// PlatformConfig is the declarative multi-tenant configuration: one
// isolated pipeline per tenant, each with its own grammar, backend and
// governance knobs.
type PlatformConfig struct {
	Tenants []TenantDef `json:"tenants"`

	// WrapFactory, when set, wraps every tenant's backend factory —
	// including the factories published by later Reloads — before it is
	// installed. It is the seam fault-injection and instrumentation
	// harnesses use to sit between the pipeline and the real backends;
	// it is code, not configuration, and never round-trips through JSON.
	WrapFactory func(runtime.Factory) runtime.Factory `json:"-"`
}

// optionByName maps the declarative option names to compile Options.
var optionByName = map[string]Option{
	"free-running-start":     FreeRunningStart(),
	"no-context-duplication": WithoutContextDuplication(),
	"no-longest-match":       WithoutLongestMatch(),
	"all-enabled":            AllEnabled(),
	"recover-restart":        RecoverRestart(),
	"recover-resync":         RecoverResync(),
}

// backendKinds is the set of declarative backend names.
var backendKinds = map[string]BackendKind{
	"":       StreamBackend,
	"stream": StreamBackend,
	"dfa":    DFABackend,
	"aot":    AOTBackend,
	"gates":  GatesBackend,
	"parser": ParserBackend,
	"earley": EarleyBackend,
}

// ParsePlatformConfig decodes a JSON platform configuration strictly:
// unknown fields are errors, so a typo'd knob cannot silently no-op. The
// result is structurally decoded but not yet validated; call Validate (or
// let NewPlatform do both).
func ParsePlatformConfig(data []byte) (*PlatformConfig, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var pc PlatformConfig
	if err := dec.Decode(&pc); err != nil {
		return nil, fmt.Errorf("cfgtag: platform config: %w", err)
	}
	// Trailing garbage after the config object is an error too.
	if dec.More() {
		return nil, fmt.Errorf("cfgtag: platform config: trailing data after config object")
	}
	return &pc, nil
}

// Validate checks the config's semantics: at least one tenant, unique
// non-empty names, exactly one grammar source each, known options and
// backends, and no undocumented negative knobs. Grammar sources are not
// compiled here (that happens in NewPlatform); every rejection wraps
// ErrInvalidConfig.
func (pc *PlatformConfig) Validate() error {
	if len(pc.Tenants) == 0 {
		return &ConfigError{Field: "tenants", Value: 0, Reason: "at least one tenant is required"}
	}
	seen := make(map[string]bool, len(pc.Tenants))
	for i := range pc.Tenants {
		t := &pc.Tenants[i]
		field := func(name string) string { return fmt.Sprintf("tenants[%d].%s", i, name) }
		if t.Name == "" {
			return &ConfigError{Field: field("name"), Value: t.Name, Reason: "tenant name is required"}
		}
		if seen[t.Name] {
			return &ConfigError{Field: field("name"), Value: t.Name, Reason: "duplicate tenant name"}
		}
		seen[t.Name] = true
		if (t.Grammar == "") == (t.GrammarFile == "") {
			return &ConfigError{Field: field("grammar"), Value: t.Grammar,
				Reason: "exactly one of grammar and grammar_file is required"}
		}
		for _, o := range t.Options {
			if _, ok := optionByName[o]; !ok {
				return &ConfigError{Field: field("options"), Value: o, Reason: "unknown compile option"}
			}
		}
		if _, ok := backendKinds[t.Backend]; !ok {
			return &ConfigError{Field: field("backend"), Value: t.Backend, Reason: "unknown backend kind"}
		}
		if t.Shards < 0 {
			return &ConfigError{Field: field("shards"), Value: t.Shards, Reason: "must be >= 0 (0 = GOMAXPROCS)"}
		}
		if t.Queue < 0 {
			return &ConfigError{Field: field("queue"), Value: t.Queue, Reason: "must be >= 0 (0 = default)"}
		}
		if t.MaxStreams < 0 {
			return &ConfigError{Field: field("max_streams"), Value: t.MaxStreams, Reason: "must be >= 0 (0 = unlimited)"}
		}
		if t.SinkAttempts < 0 {
			return &ConfigError{Field: field("sink_attempts"), Value: t.SinkAttempts, Reason: "must be >= 0 (0 = default)"}
		}
		if t.SinkBackoff < 0 {
			return &ConfigError{Field: field("sink_backoff"), Value: t.SinkBackoff, Reason: "must be >= 0 (0 = default)"}
		}
		if t.SinkWorkers < 0 {
			return &ConfigError{Field: field("sink_workers"), Value: t.SinkWorkers, Reason: "must be >= 0 (0 = single worker)"}
		}
		// send_timeout: every value is meaningful (0 = block, negative =
		// shed immediately, positive = bounded wait), nothing to reject.
		if t.ShedHighWater < 0 {
			return &ConfigError{Field: field("shed_high_water"), Value: t.ShedHighWater, Reason: "must be >= 0 (0 = full queue capacity)"}
		}
		if t.FeedDeadline < 0 {
			return &ConfigError{Field: field("feed_deadline"), Value: t.FeedDeadline, Reason: "must be >= 0 (0 = watchdog disabled)"}
		}
		if t.Limits.MaxBufferBytes < 0 {
			return &ConfigError{Field: field("limits.max_buffer_bytes"), Value: t.Limits.MaxBufferBytes, Reason: "must be >= 0 (0 = unlimited)"}
		}
		if t.Limits.MaxPendingMatches < 0 {
			return &ConfigError{Field: field("limits.max_pending_matches"), Value: t.Limits.MaxPendingMatches, Reason: "must be >= 0 (0 = unlimited)"}
		}
		if t.Limits.MaxChartItems < 0 {
			return &ConfigError{Field: field("limits.max_chart_items"), Value: t.Limits.MaxChartItems, Reason: "must be >= 0 (0 = unlimited)"}
		}
		if t.Limits.MaxWorkPerByte < 0 {
			return &ConfigError{Field: field("limits.max_work_per_byte"), Value: t.Limits.MaxWorkPerByte, Reason: "must be >= 0 (0 = unlimited)"}
		}
		if t.Quota.MaxStreams < 0 {
			return &ConfigError{Field: field("quota.max_streams"), Value: t.Quota.MaxStreams, Reason: "must be >= 0 (0 = unlimited)"}
		}
		if t.Quota.BytesPerSec < 0 {
			return &ConfigError{Field: field("quota.bytes_per_sec"), Value: t.Quota.BytesPerSec, Reason: "must be >= 0 (0 = unlimited)"}
		}
		if t.Quota.MemBudgetBytes < 0 {
			return &ConfigError{Field: field("quota.mem_budget_bytes"), Value: t.Quota.MemBudgetBytes, Reason: "must be >= 0 (0 = unlimited)"}
		}
	}
	return nil
}

// options resolves the tenant's named compile options.
func (t *TenantDef) options() []Option {
	opts := make([]Option, 0, len(t.Options))
	for _, name := range t.Options {
		opts = append(opts, optionByName[name])
	}
	return opts
}

// grammarSource returns the tenant's grammar text, reading GrammarFile
// when the source is file-based.
func (t *TenantDef) grammarSource() (string, error) {
	if t.Grammar != "" {
		return t.Grammar, nil
	}
	b, err := os.ReadFile(t.GrammarFile)
	if err != nil {
		return "", fmt.Errorf("cfgtag: tenant %q: %w", t.Name, err)
	}
	return string(b), nil
}

// platformTenant is one tenant's decode state: the engine of every live
// factory version (batches carry their version, so a batch tagged by the
// old grammar decodes with the old engine throughout a reload), the
// tenant's declarative definition, and the reload serialization lock.
type platformTenant struct {
	def  TenantDef
	kind BackendKind
	lim  StreamLimits // resolved limits, shared by every factory version

	reloadMu sync.Mutex // serializes Reload per tenant

	mu       sync.RWMutex
	engines  map[int]*Engine
	releases map[int]func() // per-version memory-gauge discharge, if any
	pending  *Engine        // compiled but not yet bound to a version id
	current  *Engine        // the newest engine (Reload target)
	compile  CompileStats   // the current version's AOT synthesis report
}

// limits resolves the declarative limits plus the tenant's memory gauge.
func (t *TenantDef) limits(mem *MemGauge) StreamLimits {
	return StreamLimits{
		MaxBufferBytes:    t.Limits.MaxBufferBytes,
		MaxPendingMatches: t.Limits.MaxPendingMatches,
		MaxChartItems:     t.Limits.MaxChartItems,
		MaxWorkPerByte:    t.Limits.MaxWorkPerByte,
		Mem:               mem,
	}
}

// buildFactory builds one factory version with the tenant's limits. The
// dfa path charges its shared transition cache to the memory gauge for
// the version's lifetime; the aot path determinizes the grammar here —
// once per version, so Reload amortizes the compile fleet-wide — and
// charges its flattened tables the same way. The returned release
// discharges that charge when the version retires (nil when there is
// nothing to release), so zero-downtime reloads do not accrete gauge
// drift. The returned CompileStats is the aot program's synthesis report
// (zero on the other backends).
func buildFactory(engine *Engine, kind BackendKind, lim StreamLimits) (runtime.Factory, func(), CompileStats, error) {
	if kind == DFABackend && lim.Mem != nil {
		var charged atomic.Int64
		mem := lim.Mem
		cfg := stream.DFAConfig{MemDelta: func(d int64) { charged.Add(d); mem.Add(d) }}
		f := runtime.DFAFactoryLimits(engine.spec, cfg, lim)
		return f, func() { mem.Add(-charged.Swap(0)) }, CompileStats{}, nil
	}
	if kind == AOTBackend {
		prog, err := aot.Compile(engine.spec, aot.Config{})
		if err != nil {
			return nil, nil, CompileStats{}, err
		}
		var release func()
		if lim.Mem != nil {
			mem := lim.Mem
			bytes := int64(prog.Stats().TableBytes)
			mem.Add(bytes)
			release = func() { mem.Add(-bytes) }
		}
		return runtime.AOTProgramFactory(prog, lim), release, prog.Stats(), nil
	}
	f, err := engine.factoryLimits(kind, lim)
	return f, nil, CompileStats{}, err
}

// engineFor resolves the engine for a batch's factory version. A version
// published by an in-flight Reload may deliver its first batch before
// Reload learns the version id; the pending engine covers that window.
func (pt *platformTenant) engineFor(ver int) *Engine {
	pt.mu.RLock()
	e := pt.engines[ver]
	pending := pt.pending
	cur := pt.current
	pt.mu.RUnlock()
	if e != nil {
		return e
	}
	if pending != nil {
		pt.mu.Lock()
		pt.engines[ver] = pending
		pt.mu.Unlock()
		return pending
	}
	return cur
}

// dropVersion forgets a retired version's engine and discharges its
// memory-gauge charge — the resource-cleanup counterpart of the runtime's
// version retirement.
func (pt *platformTenant) dropVersion(ver int) {
	pt.mu.Lock()
	delete(pt.engines, ver)
	release := pt.releases[ver]
	delete(pt.releases, ver)
	pt.mu.Unlock()
	if release != nil {
		release()
	}
}

// Platform is the config-driven multi-tenant runtime: one isolated
// pipeline per tenant, declarative construction from a PlatformConfig,
// zero-downtime grammar reloads, and per-tenant metrics and quotas. All
// methods are safe for concurrent use.
type Platform struct {
	reg  *runtime.Registry
	wrap func(runtime.Factory) runtime.Factory

	mu      sync.RWMutex
	closed  bool
	tenants map[string]*platformTenant
}

// NewPlatform validates cfg, compiles every tenant's grammar and starts
// the per-tenant pipelines. deliver receives every tag batch with the
// originating tenant's name; like Pipeline's deliver, it must not retain
// b.Data or b.Tags past the call, and per-stream batches arrive in order.
func NewPlatform(cfg *PlatformConfig, deliver func(tenant string, b *TagBatch) error) (*Platform, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if deliver == nil {
		return nil, fmt.Errorf("cfgtag: NewPlatform: deliver is required")
	}
	p := &Platform{reg: runtime.NewRegistry(), wrap: cfg.WrapFactory, tenants: make(map[string]*platformTenant)}
	for i := range cfg.Tenants {
		def := cfg.Tenants[i]
		if err := p.addTenant(def, deliver); err != nil {
			p.reg.Close()
			return nil, err
		}
	}
	return p, nil
}

func (p *Platform) addTenant(def TenantDef, deliver func(string, *TagBatch) error) error {
	src, err := def.grammarSource()
	if err != nil {
		return err
	}
	engine, err := Compile(def.Name, src, def.options()...)
	if err != nil {
		return fmt.Errorf("cfgtag: tenant %q: %w", def.Name, err)
	}
	kind := backendKinds[def.Backend]
	// One gauge per tenant, shared by the factory (stream buffers, DFA
	// cache, charts), the pipeline (arenas) and the quota check at Send.
	var mem *MemGauge
	if def.Quota.MemBudgetBytes > 0 {
		mem = &MemGauge{}
	}
	lim := def.limits(mem)
	factory, release, stats, err := buildFactory(engine, kind, lim)
	if err != nil {
		return fmt.Errorf("cfgtag: tenant %q: %w", def.Name, err)
	}
	if p.wrap != nil {
		factory = p.wrap(factory)
	}
	pt := &platformTenant{
		def:      def,
		kind:     kind,
		lim:      lim,
		engines:  map[int]*Engine{1: engine},
		releases: map[int]func(){1: release},
		current:  engine,
		compile:  stats,
	}
	name := def.Name
	sink := runtime.SinkFunc(func(b *runtime.Batch) error {
		return deliver(name, pt.engineFor(b.Version).toTagBatch(b))
	})
	tenant := runtime.Tenant{
		Name: name,
		Config: runtime.Config{
			Shards:        def.Shards,
			Queue:         def.Queue,
			Factory:       factory,
			MaxStreams:    def.MaxStreams,
			Quarantine:    time.Duration(def.Quarantine),
			BatchBytes:    def.BatchBytes,
			SinkAttempts:  def.SinkAttempts,
			SinkBackoff:   time.Duration(def.SinkBackoff),
			SinkWorkers:   def.SinkWorkers,
			SendTimeout:   time.Duration(def.SendTimeout),
			ShedHighWater: def.ShedHighWater,
			FeedDeadline:  time.Duration(def.FeedDeadline),
			Mem:           mem,
			Hooks: &runtime.Hooks{Event: func(e runtime.Event) {
				if e.Kind == runtime.EventVersionRetired {
					pt.dropVersion(e.Version)
				}
			}},
		},
		Quota: runtime.Quota{
			MaxStreams:     def.Quota.MaxStreams,
			BytesPerSec:    def.Quota.BytesPerSec,
			MemBudgetBytes: def.Quota.MemBudgetBytes,
		},
	}
	if err := p.reg.Add(tenant, sink); err != nil {
		if release != nil {
			release()
		}
		return err
	}
	p.mu.Lock()
	p.tenants[name] = pt
	p.mu.Unlock()
	return nil
}

func (p *Platform) tenant(name string) (*platformTenant, error) {
	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		return nil, ErrPlatformClosed
	}
	pt, ok := p.tenants[name]
	p.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, name)
	}
	return pt, nil
}

// isClosed reports whether Close has begun.
func (p *Platform) isClosed() bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.closed
}

// Send routes one chunk of the keyed stream to the tenant's pipeline,
// enforcing the tenant's quotas (ErrQuotaExceeded) before anything is
// enqueued. After Close it fails with ErrPlatformClosed.
func (p *Platform) Send(tenant, stream string, data []byte) error {
	if p.isClosed() {
		return ErrPlatformClosed
	}
	return p.reg.Send(tenant, stream, data)
}

// CloseStream ends one stream of the tenant; its final batch is delivered
// with EOS set. After Close it fails with ErrPlatformClosed.
func (p *Platform) CloseStream(tenant, stream string) error {
	if p.isClosed() {
		return ErrPlatformClosed
	}
	return p.reg.CloseStream(tenant, stream)
}

// Reload compiles grammarSrc with the tenant's configured options and
// backend and publishes it as a new factory version — a zero-downtime
// grammar swap. Streams already live keep their old grammar (their
// batches keep decoding with the old engine, stamped with the old
// Version); streams that start after Reload returns run the new grammar.
// The old version's resources are torn down when its last stream's final
// batch has been delivered. Returns the new version id.
func (p *Platform) Reload(tenant, grammarSrc string) (int, error) {
	pt, err := p.tenant(tenant)
	if err != nil {
		return 0, err
	}
	pt.reloadMu.Lock()
	defer pt.reloadMu.Unlock()
	engine, err := Compile(tenant, grammarSrc, pt.def.options()...)
	if err != nil {
		return 0, fmt.Errorf("cfgtag: tenant %q: %w", tenant, err)
	}
	factory, release, stats, err := buildFactory(engine, pt.kind, pt.lim)
	if err != nil {
		return 0, fmt.Errorf("cfgtag: tenant %q: %w", tenant, err)
	}
	if p.wrap != nil {
		factory = p.wrap(factory)
	}
	// Publish the engine before the factory: the new version's first
	// batch may reach the sink before Swap returns its id.
	pt.mu.Lock()
	pt.pending = engine
	pt.mu.Unlock()
	v, err := p.reg.Swap(tenant, factory)
	pt.mu.Lock()
	if err == nil {
		pt.engines[v] = engine
		pt.releases[v] = release
		pt.current = engine
		pt.compile = stats
	}
	pt.pending = nil
	pt.mu.Unlock()
	if err != nil {
		if release != nil {
			release()
		}
		return 0, err
	}
	return v, nil
}

// ReloadFromFile re-reads the tenant's grammar_file and Reloads from it;
// it fails for tenants declared with inline grammar source.
func (p *Platform) ReloadFromFile(tenant string) (int, error) {
	pt, err := p.tenant(tenant)
	if err != nil {
		return 0, err
	}
	if pt.def.GrammarFile == "" {
		return 0, fmt.Errorf("cfgtag: tenant %q has no grammar_file to reload from", tenant)
	}
	b, err := os.ReadFile(pt.def.GrammarFile)
	if err != nil {
		return 0, fmt.Errorf("cfgtag: tenant %q: %w", tenant, err)
	}
	return p.Reload(tenant, string(b))
}

// Tenants reports the tenant names in sorted order.
func (p *Platform) Tenants() []string { return p.reg.Tenants() }

// Metrics reports the tenant's observability totals and its queue-depth
// high-water mark.
func (p *Platform) Metrics(tenant string) (BackendCounters, int, error) {
	return p.reg.Counters(tenant)
}

// Faults reports the tenant's fault-tolerance totals.
func (p *Platform) Faults(tenant string) (FaultStats, error) {
	return p.reg.Faults(tenant)
}

// CompileStats reports the tenant's current AOT synthesis report —
// states, byte classes, table bytes and compile duration of the program
// compiled at construction, replaced by each Reload. Zero for tenants on
// other backends (they compile nothing ahead of time).
func (p *Platform) CompileStats(tenant string) (CompileStats, error) {
	pt, err := p.tenant(tenant)
	if err != nil {
		return CompileStats{}, err
	}
	pt.mu.RLock()
	defer pt.mu.RUnlock()
	return pt.compile, nil
}

// LiveStreams reports the tenant's admitted live-stream count (tracked
// only when the tenant has a MaxStreams quota).
func (p *Platform) LiveStreams(tenant string) (int, error) {
	return p.reg.LiveStreams(tenant)
}

// MemUsage reports the tenant's estimated live bytes — the gauge the
// mem_budget_bytes quota reads. Always zero for tenants without a memory
// budget (no gauge is installed).
func (p *Platform) MemUsage(tenant string) (int64, error) {
	return p.reg.MemUsage(tenant)
}

// CurrentVersion reports the factory version new streams of the tenant
// bind (1 until the first Reload).
func (p *Platform) CurrentVersion(tenant string) (int, error) {
	pl, err := p.reg.Pipeline(tenant)
	if err != nil {
		return 0, err
	}
	return pl.CurrentVersion(), nil
}

// LiveVersions reports the tenant's not-yet-retired factory versions in
// ascending order; length 1 means no old version is still draining.
func (p *Platform) LiveVersions(tenant string) ([]int, error) {
	pl, err := p.reg.Pipeline(tenant)
	if err != nil {
		return nil, err
	}
	return pl.LiveVersions(), nil
}

// Close shuts every tenant pipeline down — flushing open streams and
// delivering their EOS batches — and returns the first error. Close is
// idempotent: exactly one caller (even under a race) performs the
// shutdown; every later or losing call returns ErrPlatformClosed without
// touching the pipelines.
func (p *Platform) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrPlatformClosed
	}
	p.closed = true
	p.mu.Unlock()
	return p.reg.Close()
}
