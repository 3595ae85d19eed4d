package runtime

import (
	"cfgtag/internal/core"
	"cfgtag/internal/stream"
)

// taggerBackend adapts the bit-parallel stream.Tagger — the software
// stand-in for the 1-byte-per-cycle hardware — to the Backend contract.
type taggerBackend struct {
	matchBuf
	tg *stream.Tagger
}

// buildTagger compiles the spec's masks once; every Backend shares them
// read-only, so per-stream instantiation is cheap (state vectors only).
// MaxPendingMatches ends a stream whose undrained match buffer outgrows
// the bound (a match bomb) with an error wrapping ErrResourceExhausted.
func buildTagger(spec *core.Spec, o BuildOptions, _ *charge) (Built, error) {
	proto := stream.NewTagger(spec)
	lim := o.Limits
	return Built{Factory: func(int, *Hooks) (Backend, error) {
		// Clone, never hand out proto: factories run concurrently on
		// shard goroutines and clones share only read-only masks.
		b := &taggerBackend{matchBuf: matchBuf{lim: lim}, tg: proto.Clone()}
		b.tg.OnMatch = b.add
		return b, nil
	}}, nil
}

func (b *taggerBackend) Reset()              { b.tg.Reset(); b.reset() }
func (b *taggerBackend) Feed(p []byte) error { return b.fed(b.tg.Write(p)) }
func (b *taggerBackend) Close() error        { return b.tg.Close() }

func (b *taggerBackend) Counters() Counters {
	return Counters{
		Bytes:      b.bytes,
		Matches:    b.matches,
		Recoveries: b.tg.Errors,
		Collisions: b.tg.Collisions,
	}
}

// matchBuf is the pending-match buffer and byte/match totals the
// streaming paths (stream, dfa, aot, gates) share: their engine emits
// through add, and the FSA paths settle each Feed through fed.
type matchBuf struct {
	lim     Limits
	pending []stream.Match
	bytes   int64
	matches int64
}

func (m *matchBuf) add(x stream.Match) {
	m.pending = append(m.pending, x)
	m.matches++
}

// fed accounts one engine Write and enforces MaxPendingMatches.
func (m *matchBuf) fed(n int, err error) error {
	m.bytes += int64(n)
	if err == nil {
		err = m.lim.checkPending(len(m.pending))
	}
	return err
}

func (m *matchBuf) reset() {
	m.pending = m.pending[:0]
	m.bytes = 0
	m.matches = 0
}

func (m *matchBuf) Matches() []stream.Match {
	out := m.pending
	m.pending = nil
	return out
}

// DrainMatches hands the confirmed matches to the caller and adopts buf as
// the new pending buffer, letting the pipeline recycle match slices.
func (m *matchBuf) DrainMatches(buf []stream.Match) []stream.Match {
	out := m.pending
	m.pending = buf[:0]
	return out
}
