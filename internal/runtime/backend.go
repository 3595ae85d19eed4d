// Package runtime unifies the repo's six execution paths — the
// bit-parallel stream engine, its lazily-determinized DFA compilation, the
// ahead-of-time compiled table path, the gate-level simulation, the LL(1)
// predictive-parser baseline and the Earley exact-language oracle — behind
// one streaming Backend contract, and runs Backends at scale in a sharded
// pipeline (Source → N tagger shards → Sink) in the style of stream
// processors like Benthos.
//
// A Backend recognizes one stream. All six implementations emit
// stream.Match events with absolute offsets, so they are interchangeable
// and differentially testable (see Conformance). The tagging paths accept
// the documented FSA superset of the grammar; the parser and Earley paths
// accept the grammar exactly and report the difference as a Close error.
package runtime

import (
	"errors"
	"sync/atomic"
	"time"

	"cfgtag/internal/stream"
)

// errClosed reports a Feed after Close, mirroring stream.Tagger's Write
// guard across all backends.
var errClosed = errors.New("runtime: Feed after Close")

// Backend is the uniform streaming contract over one input stream.
// Implementations are not safe for concurrent use; the pipeline gives each
// stream its own Backend.
type Backend interface {
	// Reset rewinds to stream start for reuse.
	Reset()
	// Feed consumes the next chunk of stream bytes. Chunking is
	// arbitrary: detections never depend on Feed boundaries.
	Feed(p []byte) error
	// Close ends the stream, flushing any pending detection. Backends
	// that recognize the grammar exactly (the parser path) report
	// non-conforming input here; the FSA paths always return nil.
	Close() error
	// Matches drains the detections confirmed since the previous call
	// (or since Reset). Call once after Close for whole-stream use, or
	// after each Feed for incremental batches.
	Matches() []stream.Match
	// Counters reports lifetime totals since Reset.
	Counters() Counters
}

// matchRecycler is implemented by backends whose pending-match buffer can
// be swapped for a caller-owned one: DrainMatches returns the confirmed
// matches (like Matches) and adopts buf, with its length reset, as the new
// pending buffer. The pipeline uses it to cycle match slices through a
// pool instead of allocating one per batch. Wrapping backends are searched
// through their Unwrap chain, so fault injectors stay transparent.
type matchRecycler interface {
	DrainMatches(buf []stream.Match) []stream.Match
}

// asMatchRecycler finds the matchRecycler implementation under any chain
// of wrappers, nil when there is none.
func asMatchRecycler(b Backend) matchRecycler {
	for {
		if r, ok := b.(matchRecycler); ok {
			return r
		}
		u, ok := b.(backendUnwrapper)
		if !ok {
			return nil
		}
		b = u.Unwrap()
	}
}

// Counters aggregates a Backend's per-stream totals.
type Counters struct {
	// Bytes fed so far.
	Bytes int64
	// Matches confirmed so far (drained or not).
	Matches int64
	// Recoveries counts section 5.2 error-recovery events (nonzero only
	// when the spec was compiled with a Recover option).
	Recoveries int64
	// Collisions counts residual runtime index collisions (see
	// stream.Tagger.Collisions).
	Collisions int64
	// CacheHits, CacheMisses and CacheResets describe the lazy-DFA
	// transition cache (zero on the other backends). They span the
	// backend's lifetime rather than the last Reset: the cache is
	// deliberately kept warm across streams, so its counters outlive them.
	CacheHits   int64
	CacheMisses int64
	CacheResets int64
}

// since returns the growth of c over an earlier snapshot o.
func (c Counters) since(o Counters) Counters {
	return Counters{
		Bytes:       c.Bytes - o.Bytes,
		Matches:     c.Matches - o.Matches,
		Recoveries:  c.Recoveries - o.Recoveries,
		Collisions:  c.Collisions - o.Collisions,
		CacheHits:   c.CacheHits - o.CacheHits,
		CacheMisses: c.CacheMisses - o.CacheMisses,
		CacheResets: c.CacheResets - o.CacheResets,
	}
}

// Hooks is the observability surface of a pipeline. Nil hooks (or nil
// fields) cost nothing. Backends never see it: the shard folds each
// stream's Counters growth into Metrics once per processed message, and
// reports discrete fault-tolerance and lifecycle occurrences as Events.
type Hooks struct {
	// Metrics, when set, accumulates backend counter deltas, the
	// queue-depth high-water mark and a count of every Event.
	Metrics *MetricCounters
	// Event, when set, observes every Event. It must be safe for
	// concurrent use: shards and sink workers call it from their own
	// goroutines.
	Event func(Event)
}

// emit reports one event to the metrics and the callback.
func (h *Hooks) emit(e Event) {
	if h == nil {
		return
	}
	if h.Metrics != nil {
		h.Metrics.observe(e)
	}
	if h.Event != nil {
		h.Event(e)
	}
}

// EventKind classifies an Event.
type EventKind uint8

const (
	// EventPanic: a panic was recovered; Origin names the guarded call
	// ("Feed", "Close", "Matches", "Counters" or "Deliver").
	EventPanic EventKind = iota + 1
	// EventQuarantined: Key was poisoned after a backend error or panic.
	EventQuarantined
	// EventEvicted: Key was flushed by the MaxStreams idle-LRU eviction.
	EventEvicted
	// EventSinkRetry: a Deliver of Key's batch is retried; Attempt counts
	// retries (the first retry is 1) and Err is the failure that caused it.
	EventSinkRetry
	// EventDeadLetter: Key's batch went to Config.DeadLetter with Err after
	// its Deliver attempts were exhausted.
	EventDeadLetter
	// EventVersionRetired: factory Version is no longer current and its
	// last stream's final batch has been delivered, so resources the
	// factory closed over are safe to tear down.
	EventVersionRetired
	// EventOverloaded: a Send of Key was shed by admission control (see
	// Config.SendTimeout); nothing was enqueued.
	EventOverloaded
	// EventWatchdog: the Origin call ("Feed" or "Close") on Key ran past
	// Config.FeedDeadline; Elapsed is the time at detection. Exactly once
	// per overdue call.
	EventWatchdog
	// EventResourceExhausted: Key was ended by a resource budget (its EOS
	// batch carries an error wrapping ErrResourceExhausted), exactly once
	// per stream.
	EventResourceExhausted
	// EventBreakerOpen: sink worker Shard's circuit breaker tripped.
	EventBreakerOpen
	// EventBreakerClose: a half-open probe closed worker Shard's breaker.
	EventBreakerClose
	// EventBreakerShed: Key's batch was shed to DeadLetter while worker
	// Shard's breaker was open.
	EventBreakerShed

	numEventKinds
)

var eventNames = [numEventKinds]string{
	EventPanic:             "panic",
	EventQuarantined:       "quarantined",
	EventEvicted:           "evicted",
	EventSinkRetry:         "sink_retry",
	EventDeadLetter:        "dead_letter",
	EventVersionRetired:    "version_retired",
	EventOverloaded:        "overloaded",
	EventWatchdog:          "watchdog",
	EventResourceExhausted: "resource_exhausted",
	EventBreakerOpen:       "breaker_open",
	EventBreakerClose:      "breaker_close",
	EventBreakerShed:       "breaker_shed",
}

// String returns the kind's stable snake_case name.
func (k EventKind) String() string {
	if k < numEventKinds && eventNames[k] != "" {
		return eventNames[k]
	}
	return "unknown"
}

// Event is one discrete pipeline occurrence. Only the fields its Kind
// documents are set.
type Event struct {
	Kind EventKind
	// Shard is the shard the event happened on; for breaker events, the
	// sink worker.
	Shard   int
	Key     string
	Origin  string
	Err     error
	Version int
	Elapsed time.Duration
	Attempt int
}

// Factory creates one Backend per stream. shard identifies the pipeline
// shard the backend will live on (0 for standalone use). h is the
// pipeline's Hooks (possibly nil); the repo's backends ignore it, since
// the shard reads their Counters instead. The parameter stays so that
// factory wrappers written against this signature, such as the perfbench
// harness's tracing wrapper, keep compiling.
type Factory func(shard int, h *Hooks) (Backend, error)

// MetricCounters is the atomic Hooks.Metrics target: plug it into a
// pipeline and read the totals concurrently. The zero value is ready.
type MetricCounters struct {
	bytes       atomicInt64
	matches     atomicInt64
	recoveries  atomicInt64
	collisions  atomicInt64
	cacheHits   atomicInt64
	cacheMisses atomicInt64
	cacheResets atomicInt64
	maxQueue    atomicInt64

	events [numEventKinds]atomicInt64 // occurrences per EventKind
}

// add folds one message's backend counter deltas.
func (c *MetricCounters) add(d Counters) {
	c.bytes.Add(d.Bytes)
	c.matches.Add(d.Matches)
	c.recoveries.Add(d.Recoveries)
	c.collisions.Add(d.Collisions)
	c.cacheHits.Add(d.CacheHits)
	c.cacheMisses.Add(d.CacheMisses)
	c.cacheResets.Add(d.CacheResets)
}

// observe counts one event.
func (c *MetricCounters) observe(e Event) {
	if e.Kind < numEventKinds {
		c.events[e.Kind].Add(1)
	}
}

// FaultStats aggregates the pipeline's fault-tolerance and overload
// counters: panics recovered (backend or sink), streams quarantined after
// a fault, streams evicted under the MaxStreams cap, sink Deliver
// retries, batches dead-lettered after exhausting their retries, Sends
// shed by admission control, watchdog trips on overdue backend calls,
// streams ended by resource budgets, sink circuit-breaker opens (flips to
// open; BreakerOpenWorkers gauges how many are open now) and batches shed
// while a breaker was open.
type FaultStats struct {
	PanicsRecovered    int64
	StreamsQuarantined int64
	StreamsEvicted     int64
	SinkRetries        int64
	DeadLetters        int64

	SendsShed          int64
	WatchdogTrips      int64
	ResourceExhausted  int64
	BreakerOpens       int64
	BreakerSheds       int64
	BreakerOpenWorkers int64
}

// Faults returns the current fault-tolerance totals.
func (c *MetricCounters) Faults() FaultStats {
	// Closes are read before opens: a close always follows its open, so
	// the open-worker gauge never reads negative.
	closes := c.events[EventBreakerClose].Load()
	opens := c.events[EventBreakerOpen].Load()
	return FaultStats{
		PanicsRecovered:    c.events[EventPanic].Load(),
		StreamsQuarantined: c.events[EventQuarantined].Load(),
		StreamsEvicted:     c.events[EventEvicted].Load(),
		SinkRetries:        c.events[EventSinkRetry].Load(),
		DeadLetters:        c.events[EventDeadLetter].Load(),
		SendsShed:          c.events[EventOverloaded].Load(),
		WatchdogTrips:      c.events[EventWatchdog].Load(),
		ResourceExhausted:  c.events[EventResourceExhausted].Load(),
		BreakerOpens:       opens,
		BreakerSheds:       c.events[EventBreakerShed].Load(),
		BreakerOpenWorkers: opens - closes,
	}
}

// Snapshot returns the current totals. MaxQueueDepth is the high-water
// mark across all shards since construction.
func (c *MetricCounters) Snapshot() (counters Counters, maxQueueDepth int) {
	return Counters{
		Bytes:       c.bytes.Load(),
		Matches:     c.matches.Load(),
		Recoveries:  c.recoveries.Load(),
		Collisions:  c.collisions.Load(),
		CacheHits:   c.cacheHits.Load(),
		CacheMisses: c.cacheMisses.Load(),
		CacheResets: c.cacheResets.Load(),
	}, int(c.maxQueue.Load())
}

// atomicInt64 adds a monotonic Max to the standard atomic counter, and
// skips zero adds so idle counters cost no shared cache-line writes.
type atomicInt64 struct{ v atomic.Int64 }

func (a *atomicInt64) Add(n int64) {
	if n != 0 {
		a.v.Add(n)
	}
}
func (a *atomicInt64) Load() int64 { return a.v.Load() }

func (a *atomicInt64) Max(n int64) {
	for {
		cur := a.v.Load()
		if n <= cur || a.v.CompareAndSwap(cur, n) {
			return
		}
	}
}
