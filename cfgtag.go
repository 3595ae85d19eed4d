// Package cfgtag is the public API of the CFG-based token tagger — a
// reproduction of "Context-Free-Grammar based Token Tagger in
// Reconfigurable Devices" (Cho, Moscola, Lockwood; ICDE 2006).
//
// An Engine is compiled from a Lex/Yacc-style grammar (see the grammar
// file format in the README). It exposes the paper's full pipeline:
//
//   - Tagger: the streaming token tagger (bit-parallel software execution
//     of the generated hardware's exact semantics),
//   - Synthesize: technology mapping + timing model for the two FPGA
//     devices of table 1,
//   - VHDL: the structural VHDL the paper's generator emits,
//   - Parser: the LL(1) predictive-parser baseline ("true parser"),
//   - GateRunner: cycle-accurate simulation of the generated netlist.
//
// The quickstart example:
//
//	engine, _ := cfgtag.Compile("demo", cfgtag.IfThenElseSource)
//	tg := engine.NewTagger()
//	tg.OnMatch = func(m cfgtag.Match) { fmt.Println(m.Term, m.Context, m.End) }
//	tg.Write([]byte("if true then go else stop"))
//	tg.Close()
package cfgtag

import (
	"fmt"
	"time"

	"cfgtag/internal/aot"
	"cfgtag/internal/core"
	"cfgtag/internal/fpga"
	"cfgtag/internal/grammar"
	"cfgtag/internal/hwgen"
	"cfgtag/internal/parser"
	"cfgtag/internal/runtime"
	"cfgtag/internal/stream"
	"cfgtag/internal/validate"
	"cfgtag/internal/vhdl"
)

// Built-in grammar sources from the paper.
const (
	// BalancedParensSource is the figure 1 grammar.
	BalancedParensSource = grammar.BalancedParensSrc
	// IfThenElseSource is the figure 9 grammar.
	IfThenElseSource = grammar.IfThenElseSrc
	// XMLRPCSource is the figure 14 grammar (XML-RPC).
	XMLRPCSource = grammar.XMLRPCSrc
	// XMLRPCFullSource is the real-wire-format XML-RPC grammar (with the
	// <value> wrapper tags figure 14 omits).
	XMLRPCFullSource = grammar.XMLRPCFullSrc
	// EnglishSource is the section 5.1 natural-language fragment
	// (examples/natlang).
	EnglishSource = grammar.EnglishSrc
)

// Option tunes compilation; the defaults select the paper's design.
type Option func(*core.Options)

// FreeRunningStart keeps the start tokenizers always enabled so sentences
// are found anywhere in the stream (section 3.3's unanchored mode). Use it
// for long-lived streams carrying many messages.
func FreeRunningStart() Option { return func(o *core.Options) { o.FreeRunningStart = true } }

// WithoutContextDuplication builds one tokenizer per terminal instead of
// one per grammar occurrence (ablation).
func WithoutContextDuplication() Option {
	return func(o *core.Options) { o.NoContextDuplication = true }
}

// WithoutLongestMatch drops the figure 7 lookahead (ablation).
func WithoutLongestMatch() Option { return func(o *core.Options) { o.NoLongestMatch = true } }

// AllEnabled discards the syntactic wiring, leaving a naive parallel
// pattern matcher (ablation).
func AllEnabled() Option { return func(o *core.Options) { o.AllEnabled = true } }

// IndexBits fixes the encoder output width.
func IndexBits(n int) Option { return func(o *core.Options) { o.IndexBits = n } }

// RecoverRestart enables the section 5.2 error recovery in its restart
// flavor: when the engine goes dead on non-conforming input, the start
// tokenizers re-arm so the next sentence is tagged. Tagger.Errors counts
// the recovery events.
func RecoverRestart() Option { return func(o *core.Options) { o.Recovery = core.RecoveryRestart } }

// RecoverResync enables the stronger section 5.2 recovery: every tokenizer
// re-arms at the error, resuming mid-structure right after the damage (at
// the cost of some noisy tags while context re-locks).
func RecoverResync() Option { return func(o *core.Options) { o.Recovery = core.RecoveryResync } }

// Engine is a compiled tagging engine for one grammar.
type Engine struct {
	spec *core.Spec
}

// Compile parses the grammar source and compiles the engine.
func Compile(name, grammarSrc string, opts ...Option) (*Engine, error) {
	g, err := grammar.Parse(name, grammarSrc)
	if err != nil {
		return nil, err
	}
	return CompileGrammar(g, opts...)
}

// CompileGrammar compiles a pre-parsed grammar.
func CompileGrammar(g *grammar.Grammar, opts ...Option) (*Engine, error) {
	var copts core.Options
	for _, o := range opts {
		o(&copts)
	}
	spec, err := core.Compile(g, copts)
	if err != nil {
		return nil, err
	}
	return &Engine{spec: spec}, nil
}

// Spec exposes the compiled specification for advanced integration
// (instance wiring, encoder indices).
func (e *Engine) Spec() *core.Spec { return e.spec }

// Match is one token detection.
type Match struct {
	// Term is the terminal name.
	Term string
	// Context is the grammatical context, e.g. "methodName[1]" — the
	// paper's semantic tag.
	Context string
	// Index is the token index the hardware encoder would emit.
	Index int
	// End is the offset of the lexeme's last byte.
	End int64
	// SentenceEnd reports that a complete sentence of the grammar may end
	// at this token (the back-end's message-boundary signal).
	SentenceEnd bool
	// InstanceID identifies the tokenizer instance (Spec().Instances).
	InstanceID int
}

// Tagger streams bytes and emits matches. Not safe for concurrent use.
type Tagger struct {
	engine *Engine
	inner  *stream.Tagger
	// OnMatch receives detections in input order.
	OnMatch func(Match)
}

// NewTagger creates a streaming tagger.
func (e *Engine) NewTagger() *Tagger {
	t := &Tagger{engine: e, inner: stream.NewTagger(e.spec)}
	t.inner.OnMatch = func(m stream.Match) {
		if t.OnMatch != nil {
			t.OnMatch(t.engine.match(m))
		}
	}
	return t
}

func (e *Engine) match(m stream.Match) Match {
	in := e.spec.Instances[m.InstanceID]
	return Match{
		Term:        in.Term,
		Context:     in.Context(e.spec.Grammar),
		Index:       in.Index,
		End:         m.End,
		SentenceEnd: in.CanEnd,
		InstanceID:  in.ID,
	}
}

// Errors returns the number of section 5.2 recovery events so far (always
// zero unless a Recover option was used at compile time).
func (t *Tagger) Errors() int64 { return t.inner.Errors }

// Write feeds stream bytes (io.Writer-compatible).
func (t *Tagger) Write(p []byte) (int, error) { return t.inner.Write(p) }

// Close flushes the final byte's pending detection.
func (t *Tagger) Close() error { return t.inner.Close() }

// Reset rewinds to stream start for reuse.
func (t *Tagger) Reset() { t.inner.Reset() }

// Tag runs a whole buffer and returns all matches (Reset + Close implied).
func (t *Tagger) Tag(data []byte) []Match {
	ms := t.inner.Tag(data)
	out := make([]Match, len(ms))
	for i, m := range ms {
		out[i] = t.engine.match(m)
	}
	return out
}

// Pool tags independent buffers concurrently (one borrowed engine state
// per call); safe for concurrent use, unlike Tagger.
type Pool struct {
	engine *Engine
	inner  *stream.Pool
}

// NewPool builds a pool of size concurrent taggers (0 = GOMAXPROCS).
func (e *Engine) NewPool(size int) *Pool {
	return &Pool{engine: e, inner: stream.NewPool(e.spec, size)}
}

// Tag tags one buffer; concurrent calls proceed in parallel up to the pool
// size.
func (p *Pool) Tag(data []byte) []Match {
	ms := p.inner.Tag(data)
	out := make([]Match, len(ms))
	for i, m := range ms {
		out[i] = p.engine.match(m)
	}
	return out
}

// Report is a synthesis result (a table 1 row).
type Report = fpga.Report

// Devices of table 1.
var (
	Virtex4LX200 = fpga.Virtex4LX200
	VirtexE2000  = fpga.VirtexE2000
)

// Synthesize generates the hardware netlist, maps it to 4-input LUTs on
// the device and models its clock rate — one row of table 1.
func (e *Engine) Synthesize(dev fpga.Device) (Report, error) {
	d, err := hwgen.Generate(e.spec, hwgen.Options{})
	if err != nil {
		return Report{}, err
	}
	return fpga.Synthesize(d.Netlist, dev, e.spec.PatternBytes())
}

// VHDL emits the generated design as structural VHDL.
func (e *Engine) VHDL(entity string) (string, error) {
	d, err := hwgen.Generate(e.spec, hwgen.Options{})
	if err != nil {
		return "", err
	}
	return vhdl.Emit(d.Netlist, vhdl.Options{Entity: entity, Comment: e.spec.Grammar.Name})
}

// GateRunner simulates the generated netlist cycle by cycle — the
// gate-level reference for the Tagger's semantics.
type GateRunner struct {
	engine *Engine
	runner *hwgen.Runner
}

// NewGateRunner generates and instantiates the hardware simulation.
func (e *Engine) NewGateRunner() (*GateRunner, error) {
	d, err := hwgen.Generate(e.spec, hwgen.Options{})
	if err != nil {
		return nil, err
	}
	r, err := hwgen.NewRunner(d)
	if err != nil {
		return nil, err
	}
	return &GateRunner{engine: e, runner: r}, nil
}

// Run feeds the input at one byte per cycle and returns the detections.
func (g *GateRunner) Run(input []byte) []Match {
	ms := g.runner.Run(input)
	out := make([]Match, len(ms))
	for i, m := range ms {
		out[i] = g.engine.match(m)
	}
	return out
}

// Wide2Runner simulates the 2-bytes-per-clock datapath (the section 5.2
// scaling, actually built for the first doubling).
type Wide2Runner struct {
	engine *Engine
	runner *hwgen.RunnerWide2
}

// NewWide2Runner generates and instantiates the 2-byte datapath; not
// available with Recover options.
func (e *Engine) NewWide2Runner() (*Wide2Runner, error) {
	d, err := hwgen.GenerateWide2(e.spec, hwgen.Options{})
	if err != nil {
		return nil, err
	}
	r, err := hwgen.NewRunnerWide2(d)
	if err != nil {
		return nil, err
	}
	return &Wide2Runner{engine: e, runner: r}, nil
}

// Run feeds the input two bytes per cycle and returns the detections.
func (w *Wide2Runner) Run(input []byte) []Match {
	ms := w.runner.Run(input)
	out := make([]Match, len(ms))
	for i, m := range ms {
		out[i] = w.engine.match(m)
	}
	return out
}

// SelfTest cross-checks both generated hardware datapaths against the
// software engine on randomly generated conforming sentences; it returns
// the number of sentences verified.
func (e *Engine) SelfTest(seed int64, sentences int) (int, error) {
	return hwgen.SelfTest(e.spec, seed, sentences)
}

// Parser is the LL(1) predictive-parser baseline.
type Parser struct {
	engine *Engine
	table  *parser.Table
}

// NewParser builds the LL(1) parse table; it fails if the grammar is not
// LL(1).
func (e *Engine) NewParser() (*Parser, error) {
	tbl, err := parser.BuildTable(e.spec)
	if err != nil {
		return nil, err
	}
	return &Parser{engine: e, table: tbl}, nil
}

// Parse validates the input as a complete sentence, returning the tagged
// tokens (comparable to Tagger output on conforming input).
func (p *Parser) Parse(input []byte) ([]Match, error) {
	tags, err := p.table.Parse(input)
	if err != nil {
		return nil, err
	}
	out := make([]Match, 0, len(tags))
	for _, tag := range tags {
		in := p.engine.spec.InstanceAt(tag.Rule, tag.Pos)
		if in == nil {
			return nil, fmt.Errorf("cfgtag: internal: no instance at rule %d pos %d", tag.Rule, tag.Pos)
		}
		out = append(out, Match{
			Term:        in.Term,
			Context:     in.Context(p.engine.spec.Grammar),
			Index:       in.Index,
			End:         int64(tag.End),
			SentenceEnd: in.CanEnd,
			InstanceID:  in.ID,
		})
	}
	return out, nil
}

// Accepts reports whether the input is a sentence of the grammar.
func (p *Parser) Accepts(input []byte) bool { return p.table.Accepts(input) }

// CheckedTagger is a tagger coupled with the section 5.2 stack extension:
// a bounded LL(1) stack machine audits the tag stream, restoring exact
// grammar recognition on top of the stack-less engine (nesting violations
// the parallel hardware cannot see surface on OnViolation).
type CheckedTagger struct {
	engine *Engine
	inner  *validate.CheckedTagger
	// OnMatch receives every detection, as with Tagger.
	OnMatch func(Match)
	// OnViolation receives each recursion/nesting violation: the offset of
	// the offending token's last byte (-1 at end of input), its terminal
	// name ("" at end of input) and the cause.
	OnViolation func(end int64, term string, err error)
}

// NewCheckedTagger builds the stack-extended pipeline. maxStackDepth
// bounds the modeled hardware stack (0 = 4096); the grammar must be LL(1).
func (e *Engine) NewCheckedTagger(maxStackDepth int) (*CheckedTagger, error) {
	inner, err := validate.NewCheckedTagger(e.spec, maxStackDepth)
	if err != nil {
		return nil, err
	}
	ct := &CheckedTagger{engine: e, inner: inner}
	inner.OnMatch = func(m stream.Match) {
		if ct.OnMatch != nil {
			ct.OnMatch(e.match(m))
		}
	}
	inner.Validator.OnViolation = func(v *validate.Violation) {
		if ct.OnViolation != nil {
			end := v.End
			if v.Term == "" {
				end = -1
			}
			ct.OnViolation(end, v.Term, v.Err)
		}
	}
	return ct, nil
}

// Write feeds stream bytes.
func (c *CheckedTagger) Write(p []byte) (int, error) { return c.inner.Write(p) }

// Close flushes the tagger and runs the end-of-input check; an unfinished
// sentence is returned (and reported) as a violation.
func (c *CheckedTagger) Close() error { return c.inner.Close() }

// Reset rewinds both the tagger and the stack machine.
func (c *CheckedTagger) Reset() {
	c.inner.Tagger.Reset()
	c.inner.Validator.Reset()
}

// Violations counts the nesting violations seen since Reset.
func (c *CheckedTagger) Violations() int64 { return c.inner.Validator.Violations() }

// Errors returns the tagger's section 5.2 recovery-event count (nonzero
// only when the engine was compiled with a Recover option); bytes the
// tagger could not place in any context never reach the validator, so a
// full well-formedness verdict is Violations() == 0 && Errors() == 0 &&
// Close() == nil.
func (c *CheckedTagger) Errors() int64 { return c.inner.Tagger.Errors }

// StackDepth reports the stack high-water mark — the capacity a hardware
// stack would have needed for this stream.
func (c *CheckedTagger) StackDepth() int { return c.inner.Validator.StackDepth() }

// BackendKind selects one of the engine's six execution paths when they
// are driven through the uniform Backend interface.
type BackendKind string

const (
	// StreamBackend is the bit-parallel software tagger (the default).
	StreamBackend BackendKind = "stream"
	// DFABackend lazily compiles the bit-parallel engine into a cached
	// DFA: hash-consed (active, pending) states with per-byte-class
	// transition outcomes filled on demand, RE2-style. Detections are
	// identical to StreamBackend; throughput is several times higher once
	// the cache warms. The cache is bounded (DFAMaxStates) and resets
	// wholesale on overflow, so memory never grows with input.
	DFABackend BackendKind = "dfa"
	// AOTBackend runs the lazy-DFA construction to closure ahead of time
	// and executes flat precompiled transition tables: no warmup, no
	// hash lookups, no cache resets — the software analogue of the
	// paper's synthesized hardware, and the fastest dense-input path.
	// Detections are identical to StreamBackend and DFABackend. The
	// trade is a hard compile-time state budget: a grammar that does not
	// determinize within it fails NewBackend and must use DFABackend.
	AOTBackend BackendKind = "aot"
	// GatesBackend is the cycle-accurate simulation of the generated
	// netlist — the hardware reference, byte-per-cycle slow.
	GatesBackend BackendKind = "gates"
	// ParserBackend is the LL(1) predictive-parser baseline. It buffers
	// the stream and parses at Close: one stream must be one sentence, the
	// grammar must be LL(1), and matches appear only after a successful
	// Close.
	ParserBackend BackendKind = "parser"
	// EarleyBackend is the exact-language oracle: a Leo-optimized Earley
	// recognizer handling every grammar class — left and right recursion,
	// ambiguity, ambiguous lexicons — where the FSA paths accept a
	// superset and the LL(1) parser refuses most grammars outright. Like
	// ParserBackend it buffers the stream and recognizes at Close (one
	// stream = one sentence); on ambiguous input its matches are the union
	// over all derivations. It is the reference the precision rail
	// (scripts/precision.sh) measures the hardware paths against.
	EarleyBackend BackendKind = "earley"
)

// BackendCounters reports what a Backend has processed: bytes fed, matches
// confirmed, section 5.2 recovery events, encoder index collisions and —
// on the dfa path — transition-cache hits, misses and resets.
type BackendCounters = runtime.Counters

// Backend drives any of the six execution paths through one streaming
// contract: Feed bytes, drain Matches, Close to flush the final byte (and,
// for the parser and earley paths, to obtain the verdict). Not safe for
// concurrent use.
type Backend struct {
	engine *Engine
	inner  runtime.Backend
	kind   BackendKind
}

func (e *Engine) factory(kind BackendKind) (runtime.Factory, error) {
	return e.factoryLimits(kind, runtime.Limits{})
}

// factoryLimits builds the execution path's factory with per-stream
// resource bounds baked in. The gates path has no bounded variant (it is
// the cycle-accurate reference, never a production backend); it ignores
// every limit but still counts toward tenant memory budgets via arenas.
func (e *Engine) factoryLimits(kind BackendKind, lim runtime.Limits) (runtime.Factory, error) {
	if err := lim.Validate(); err != nil {
		return nil, err
	}
	switch kind {
	case StreamBackend, "":
		return runtime.TaggerFactoryLimits(e.spec, lim), nil
	case DFABackend:
		return runtime.DFAFactoryLimits(e.spec, stream.DFAConfig{}, lim), nil
	case AOTBackend:
		return runtime.AOTFactoryLimits(e.spec, aot.Config{}, lim)
	case GatesBackend:
		return runtime.GateFactory(e.spec)
	case ParserBackend:
		return runtime.ParserFactoryLimits(e.spec, lim)
	case EarleyBackend:
		return runtime.EarleyFactoryLimits(e.spec, lim)
	default:
		return nil, fmt.Errorf("cfgtag: unknown backend kind %q", kind)
	}
}

// NewBackend instantiates one execution path behind the uniform contract.
// GatesBackend generates the netlist, ParserBackend builds the LL(1) table,
// EarleyBackend compiles the recognizer and AOTBackend determinizes the
// grammar offline, so those can fail; StreamBackend cannot.
func (e *Engine) NewBackend(kind BackendKind) (*Backend, error) {
	f, err := e.factory(kind)
	if err != nil {
		return nil, err
	}
	b, err := f(0, nil)
	if err != nil {
		return nil, err
	}
	return &Backend{engine: e, inner: b, kind: kind}, nil
}

// Kind returns which execution path this backend runs.
func (b *Backend) Kind() BackendKind { return b.kind }

// Reset rewinds to stream start for reuse.
func (b *Backend) Reset() { b.inner.Reset() }

// Feed streams bytes into the backend.
func (b *Backend) Feed(p []byte) error { return b.inner.Feed(p) }

// Close flushes the stream's end. The parser backend parses here and
// returns the reject as the error.
func (b *Backend) Close() error { return b.inner.Close() }

// Matches drains the detections confirmed since the previous call.
func (b *Backend) Matches() []Match {
	ms := b.inner.Matches()
	if len(ms) == 0 {
		return nil
	}
	out := make([]Match, len(ms))
	for i, m := range ms {
		out[i] = b.engine.match(m)
	}
	return out
}

// Counters reports the backend's lifetime totals.
func (b *Backend) Counters() BackendCounters { return b.inner.Counters() }

// CompileStats is the AOT path's synthesis report: closed state count,
// byte-equivalence classes, flattened table bytes and offline compile
// duration.
type CompileStats = stream.CompileStats

// CompileStats reports the aot path's offline compile cost; zero for
// every other execution path (they compile nothing ahead of time).
func (b *Backend) CompileStats() CompileStats {
	if cs, ok := b.inner.(interface{ CompileStats() stream.CompileStats }); ok {
		return cs.CompileStats()
	}
	return CompileStats{}
}

// TagBatch is one unit of pipeline output: a chunk of one stream plus the
// matches confirmed over it. Data is pooled — it is only valid during the
// deliver callback; copy it to keep it.
type TagBatch struct {
	// Stream is the key the bytes were Sent under.
	Stream string
	// Shard is the pipeline shard that processed this stream.
	Shard int
	// Data is the chunk of stream bytes this batch covers.
	Data []byte
	// Tags holds the matches confirmed while processing Data.
	Tags []Match
	// EOS marks the stream's final batch.
	EOS bool
	// Evicted marks a final batch forced by the MaxStreams idle-LRU
	// eviction rather than by CloseStream (EOS is set too).
	Evicted bool
	// Err carries the stream's backend verdict (e.g. a parser reject) or
	// the fault that quarantined the stream (test with errors.Is against
	// ErrBackendPanic).
	Err error
	// Version identifies the backend factory version that tagged this
	// batch: 1 at construction, incremented by each zero-downtime reload
	// (see Platform.Reload). Streams never change version mid-life.
	Version int
}

func (e *Engine) toTagBatch(b *runtime.Batch) *TagBatch {
	tb := &TagBatch{Stream: b.Key, Shard: b.Shard, Data: b.Data, EOS: b.EOS, Evicted: b.Evicted, Err: b.Err, Version: b.Version}
	if len(b.Tags) > 0 {
		tb.Tags = make([]Match, len(b.Tags))
		for i, m := range b.Tags {
			tb.Tags[i] = e.match(m)
		}
	}
	return tb
}

// Metrics aggregates pipeline observability counters (bytes, matches,
// recoveries, collisions, queue-depth high-water mark) atomically; safe
// for concurrent use. The zero value is ready.
type Metrics = runtime.MetricCounters

// PipelineConfig tunes a sharded pipeline.
type PipelineConfig struct {
	// Backend selects the execution path each shard runs ("" = stream).
	Backend BackendKind
	// Shards is the number of tagging shards (0 = GOMAXPROCS). Streams
	// have shard affinity: one stream is always tagged by the same shard.
	Shards int
	// Queue is each shard's input queue depth in batches (0 = 64).
	Queue int
	// Metrics, when set, receives the pipeline's observability counters.
	Metrics *Metrics
	// MaxStreams caps the live streams per shard (0 = unlimited). At the
	// cap, the least-recently-fed stream is flushed and delivered as a
	// final batch with Evicted set.
	MaxStreams int
	// Quarantine is how long a stream key is rejected after its backend
	// faults (0 = 30s default; negative disables quarantine).
	Quarantine time.Duration
	// SinkAttempts is how many times a failing deliver callback is tried
	// per batch, first attempt included (0 = 3).
	SinkAttempts int
	// SinkBackoff is the base retry delay, doubled per retry with jitter
	// and capped (0 = 1ms).
	SinkBackoff time.Duration
	// DeadLetter, when set, receives batches whose deliver attempts were
	// exhausted; the pipeline then carries on. When nil, an exhausted
	// batch fails the pipeline permanently instead.
	DeadLetter func(*TagBatch, error)
	// BatchBytes is the per-shard coalescing threshold: chunks for a
	// shard are batched into one pooled dispatch message until this many
	// bytes are pending or the shard goes idle (0 = 64 KiB default;
	// negative disables coalescing and dispatches every Send
	// immediately).
	BatchBytes int
	// SinkWorkers is the number of delivery workers (0 or 1 = a single
	// worker, the classic serialized sink). With more than one, batches
	// for the same stream still arrive in order on one worker, but
	// deliver must be safe for concurrent use across streams.
	SinkWorkers int
	// SendTimeout switches Send from backpressure to load shedding: 0
	// blocks on a full shard queue (the default), a negative value sheds
	// immediately, and a positive value waits at most that long before
	// shedding. A shed Send fails with ErrOverloaded, accepts none of the
	// chunk's bytes, and leaves the stream otherwise intact.
	SendTimeout time.Duration
	// ShedHighWater is the shard queue depth (in batches) at which shed
	// mode starts rejecting (0 = the full Queue capacity). Only meaningful
	// with SendTimeout set.
	ShedHighWater int
	// FeedDeadline arms the backend watchdog: a Feed or Close call
	// exceeding it marks the stream's backend stalled, ends the stream
	// with an error wrapping ErrBackendStalled and quarantines its key
	// (0 = watchdog disabled).
	FeedDeadline time.Duration
	// BreakerThreshold arms the sink circuit breaker: after this many
	// consecutive retry-exhausted deliveries a sink worker opens and sheds
	// batches straight to DeadLetter (wrapping ErrBreakerOpen) until a
	// cooldown probe succeeds (0 = breaker disabled; requires DeadLetter).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker sheds before probing the
	// sink again (0 = 1s).
	BreakerCooldown time.Duration
	// Limits bounds each stream's backend resources (buffer bytes, pending
	// matches, Earley chart) and optionally carries the memory gauge
	// aggregate budgets read; the zero value is unlimited.
	Limits StreamLimits
}

// StreamLimits bounds one stream's backend resource consumption; see
// runtime.Limits for field semantics. A tripped bound ends only the
// offending stream, with a TagBatch.Err wrapping ErrResourceExhausted.
type StreamLimits = runtime.Limits

// MemGauge aggregates the pipeline's estimated live bytes — arenas,
// stream buffers, DFA cache, Earley charts — for memory budgeting.
type MemGauge = runtime.MemGauge

// ErrPipelineClosed is returned by Pipeline.Send, Pipeline.CloseStream and
// a second Pipeline.Close once the pipeline has been closed (test with
// errors.Is). A Send racing Close either enqueues fully — its batch is
// delivered before Close returns — or fails with this error; chunks are
// never partially accepted.
var ErrPipelineClosed = runtime.ErrClosed

// ErrStreamQuarantined is returned (wrapped, test with errors.Is) by Send
// and CloseStream for a key whose backend recently faulted and is still
// inside its quarantine window.
var ErrStreamQuarantined = runtime.ErrQuarantined

// ErrBackendPanic is the sentinel wrapped into a TagBatch.Err when the
// stream's backend panicked; the pipeline recovers the panic, ends the
// stream and quarantines its key.
var ErrBackendPanic = runtime.ErrBackendPanic

// ErrOverloaded is returned (wrapped, test with errors.Is) by Send in shed
// mode (PipelineConfig.SendTimeout != 0) when the stream's shard queue is
// at its high watermark: the chunk was rejected whole, the stream remains
// healthy, and the caller should back off and retry.
var ErrOverloaded = runtime.ErrOverloaded

// ErrResourceExhausted is the sentinel wrapped into a TagBatch.Err (and
// Send errors under a tenant memory budget) when a per-stream resource
// bound tripped: buffer bytes, pending matches or the Earley chart budget.
// The stream is ended and quarantined; other streams are unaffected.
var ErrResourceExhausted = runtime.ErrResourceExhausted

// ErrBackendStalled is the sentinel wrapped into a TagBatch.Err when a
// backend call outran PipelineConfig.FeedDeadline (the watchdog verdict).
var ErrBackendStalled = runtime.ErrBackendStalled

// ErrBreakerOpen is the sentinel wrapped into the DeadLetter error for
// batches shed by an open sink circuit breaker.
var ErrBreakerOpen = runtime.ErrBreakerOpen

// PermanentDeliverError marks an error returned by the deliver callback as
// permanent: the pipeline skips retries and dead-lettering and fails fast,
// surfacing the error from Err, Send and Close.
func PermanentDeliverError(err error) error { return runtime.PermanentError(err) }

// FaultStats aggregates the pipeline's fault-tolerance counters; read it
// from Metrics.Faults().
type FaultStats = runtime.FaultStats

// Pipeline fans a keyed stream population out over tagging shards: Send
// dispatches chunks by stream key, each shard runs one Backend per live
// stream, and completed tag batches are delivered — in per-stream order,
// serialized on a single goroutine — to the deliver callback. Send and
// CloseStream are safe for concurrent use.
type Pipeline struct {
	engine *Engine
	inner  *runtime.Pipeline
}

// NewPipeline starts a sharded pipeline delivering tag batches to deliver.
// The pipeline owns its goroutines until Close.
func (e *Engine) NewPipeline(cfg PipelineConfig, deliver func(*TagBatch) error) (*Pipeline, error) {
	f, err := e.factoryLimits(cfg.Backend, cfg.Limits)
	if err != nil {
		return nil, err
	}
	rcfg := runtime.Config{
		Shards:           cfg.Shards,
		Queue:            cfg.Queue,
		Factory:          f,
		MaxStreams:       cfg.MaxStreams,
		Quarantine:       cfg.Quarantine,
		SinkAttempts:     cfg.SinkAttempts,
		SinkBackoff:      cfg.SinkBackoff,
		BatchBytes:       cfg.BatchBytes,
		SinkWorkers:      cfg.SinkWorkers,
		SendTimeout:      cfg.SendTimeout,
		ShedHighWater:    cfg.ShedHighWater,
		FeedDeadline:     cfg.FeedDeadline,
		BreakerThreshold: cfg.BreakerThreshold,
		BreakerCooldown:  cfg.BreakerCooldown,
		Mem:              cfg.Limits.Mem,
	}
	if cfg.Metrics != nil {
		rcfg.Hooks = &runtime.Hooks{Metrics: cfg.Metrics}
	}
	if cfg.DeadLetter != nil {
		dl := cfg.DeadLetter
		rcfg.DeadLetter = func(b *runtime.Batch, err error) { dl(e.toTagBatch(b), err) }
	}
	sink := runtime.SinkFunc(func(b *runtime.Batch) error {
		return deliver(e.toTagBatch(b))
	})
	p, err := runtime.NewPipeline(rcfg, sink)
	if err != nil {
		return nil, err
	}
	return &Pipeline{engine: e, inner: p}, nil
}

// Send routes one chunk of the keyed stream to its shard. It blocks when
// the shard's queue is full (backpressure) and fails with
// ErrPipelineClosed after Close.
func (p *Pipeline) Send(stream string, data []byte) error { return p.inner.Send(stream, data) }

// CloseStream ends one stream: its backend is flushed and its final batch
// is delivered with EOS set.
func (p *Pipeline) CloseStream(stream string) error { return p.inner.CloseStream(stream) }

// Close flushes every open stream, stops the shards, and returns the first
// deliver error.
func (p *Pipeline) Close() error { return p.inner.Close() }

// Err reports the pipeline's permanent delivery failure, if any: non-nil
// once the deliver callback returned a PermanentDeliverError or exhausted
// its attempts with no DeadLetter configured. Send and Close return the
// same error from then on.
func (p *Pipeline) Err() error { return p.inner.Err() }

// Lexeme recovers the matched text of m from the input it was tagged in.
// The hardware reports only where a token ends; the lexeme is the longest
// suffix of input[:End+1] matching the token's pattern (exact for every
// deterministic token, and for the built-in grammars).
func (e *Engine) Lexeme(input []byte, m Match) string {
	in := e.spec.Instances[m.InstanceID]
	end := int(m.End) + 1
	if end > len(input) {
		return ""
	}
	n := in.Program.LongestSuffix(input[:end])
	if n <= 0 {
		return ""
	}
	return string(input[end-n : end])
}

// Lint reports non-fatal design smells in the compiled grammar (delimiter
// overlaps, encoder conflict sets, barely-constraining wiring).
func (e *Engine) Lint() []string { return e.spec.Lint() }

// FollowTable renders the per-terminal Follow sets (figure 10).
func (e *Engine) FollowTable() string { return e.spec.Sets.TerminalFollowTable() }

// Wiring renders the tokenizer instances and their Follow wiring
// (figure 11 in text form).
func (e *Engine) Wiring() string { return e.spec.DumpWiring() }
