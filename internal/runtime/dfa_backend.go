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
	matchBuf
	d *stream.DFA
}

// buildDFA creates one transition cache bounded by o.DFA.MaxStates states
// (0 = stream.DefaultDFAMaxStates) that every Backend executes against:
// determinization is paid once per version, not once per stream, and
// late-arriving streams run warm from their first byte. On overflow the
// cache resets wholesale and rebuilds from live traffic, so the path
// degrades to NFA speed, never to unbounded memory. The cache's estimated
// footprint is charged to the version (and so to Limits.Mem) as it grows.
// MaxPendingMatches bounds each stream's undrained match buffer.
func buildDFA(spec *core.Spec, o BuildOptions, c *charge) (Built, error) {
	cfg := o.DFA
	cfg.MemDelta = nil // unmetered versions skip the size estimates
	if c.mem != nil {
		cfg.MemDelta = c.add
	}
	cache := stream.NewDFACache(spec, cfg)
	lim := o.Limits
	return Built{Factory: func(int, *Hooks) (Backend, error) {
		b := &dfaBackend{matchBuf: matchBuf{lim: lim}, d: cache.NewDFA()}
		b.d.OnMatch = b.add
		return b, nil
	}}, nil
}

func (b *dfaBackend) Reset()              { b.d.Reset(); b.reset() }
func (b *dfaBackend) Feed(p []byte) error { return b.fed(b.d.Write(p)) }
func (b *dfaBackend) Close() error        { return b.d.Close() }

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
