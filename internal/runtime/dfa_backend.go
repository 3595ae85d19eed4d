package runtime

import (
	"cfgtag/internal/core"
	"cfgtag/internal/stream"
)

// dfaBackend adapts the lazy-DFA compiled engine — the cached
// determinization of the bit-parallel NFA — to the Backend contract. It is
// the highest-throughput software path: identical detections to the stream
// backend, served from hash-consed transition outcomes instead of per-byte
// bitset recomputation.
type dfaBackend struct {
	d       *stream.DFA
	lim     Limits
	pending []stream.Match
	bytes   int64
	matches int64
}

// DFAFactory returns a Factory producing lazy-DFA engines. The spec is
// compiled once and every Backend executes against one shared transition
// cache bounded by maxStates states (0 = stream.DefaultDFAMaxStates):
// determinization is paid once per factory, not once per stream, and
// late-arriving streams run warm from their first byte. On overflow the
// cache resets wholesale and rebuilds from live traffic, so the path
// degrades to NFA speed, never to unbounded memory.
func DFAFactory(spec *core.Spec, maxStates int) Factory {
	return DFAFactoryConfig(spec, stream.DFAConfig{MaxStates: maxStates})
}

// DFAFactoryConfig is DFAFactory with the full stream.DFAConfig exposed,
// notably NoAccel for differential runs against the skip-ahead path.
func DFAFactoryConfig(spec *core.Spec, cfg stream.DFAConfig) Factory {
	return DFAFactoryLimits(spec, cfg, Limits{})
}

// DFAFactoryLimits is DFAFactoryConfig with per-stream resource bounds:
// MaxPendingMatches bounds each stream's undrained match buffer (error
// wrapping ErrResourceExhausted on trip), and Limits.Mem — unless the
// DFAConfig already carries a MemDelta — observes the shared transition
// cache's estimated footprint, so tenant memory budgets see cache growth.
func DFAFactoryLimits(spec *core.Spec, cfg stream.DFAConfig, lim Limits) Factory {
	if cfg.MemDelta == nil {
		cfg.MemDelta = lim.Mem.Delta()
	}
	cache := stream.NewDFACache(spec, cfg)
	return func(int, *Hooks) (Backend, error) {
		d := cache.NewDFA()
		b := &dfaBackend{d: d, lim: lim}
		d.OnMatch = func(m stream.Match) {
			b.pending = append(b.pending, m)
			b.matches++
		}
		return b, nil
	}
}

func (b *dfaBackend) Reset() {
	b.d.Reset()
	b.pending = b.pending[:0]
	b.bytes = 0
	b.matches = 0
}

func (b *dfaBackend) Feed(p []byte) error {
	n, err := b.d.Write(p)
	b.bytes += int64(n)
	if err == nil {
		err = b.lim.checkPending(len(b.pending))
	}
	return err
}

func (b *dfaBackend) Close() error { return b.d.Close() }

func (b *dfaBackend) Matches() []stream.Match {
	out := b.pending
	b.pending = nil
	return out
}

// DrainMatches hands the confirmed matches to the caller and adopts buf as
// the new pending buffer, letting the pipeline recycle match slices.
func (b *dfaBackend) DrainMatches(buf []stream.Match) []stream.Match {
	out := b.pending
	b.pending = buf[:0]
	return out
}

// CacheStates reports the number of DFA states currently cached;
// MaxStates the configured bound. Exposed for the conformance harness's
// cache-bound assertion.
func (b *dfaBackend) CacheStates() int { return b.d.CacheStates() }
func (b *dfaBackend) MaxStates() int   { return b.d.MaxStates() }

func (b *dfaBackend) Counters() Counters {
	hits, misses, resets := b.d.CacheStats()
	return Counters{
		Bytes:      b.bytes,
		Matches:    b.matches,
		Recoveries: b.d.Errors,
		Collisions: b.d.Collisions,
		// Cache totals span the backend's lifetime, not the last Reset:
		// the transition cache is deliberately kept warm across streams.
		CacheHits:   hits,
		CacheMisses: misses,
		CacheResets: resets,
	}
}
