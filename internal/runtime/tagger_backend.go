package runtime

import (
	"cfgtag/internal/core"
	"cfgtag/internal/stream"
)

// taggerBackend adapts the bit-parallel stream.Tagger — the software
// stand-in for the 1-byte-per-cycle hardware — to the Backend contract.
type taggerBackend struct {
	tg      *stream.Tagger
	lim     Limits
	pending []stream.Match
	bytes   int64
	matches int64
}

// TaggerFactory returns a Factory producing bit-parallel stream engines.
// The spec is compiled once; every Backend shares the read-only masks, so
// per-stream instantiation is cheap (state vectors only).
func TaggerFactory(spec *core.Spec) Factory {
	return TaggerFactoryLimits(spec, Limits{})
}

// TaggerFactoryLimits is TaggerFactory with per-stream resource bounds:
// MaxPendingMatches ends a stream whose undrained match buffer outgrows
// the bound (a match bomb) with an error wrapping ErrResourceExhausted.
func TaggerFactoryLimits(spec *core.Spec, lim Limits) Factory {
	proto := stream.NewTagger(spec) // compile masks once
	return func(int, *Hooks) (Backend, error) {
		// Clone, never hand out proto: factories run concurrently on
		// shard goroutines and clones share only read-only masks.
		tg := proto.Clone()
		b := &taggerBackend{tg: tg, lim: lim}
		tg.OnMatch = func(m stream.Match) {
			b.pending = append(b.pending, m)
			b.matches++
		}
		return b, nil
	}
}

func (b *taggerBackend) Reset() {
	b.tg.Reset()
	b.pending = b.pending[:0]
	b.bytes = 0
	b.matches = 0
}

func (b *taggerBackend) Feed(p []byte) error {
	n, err := b.tg.Write(p)
	b.bytes += int64(n)
	if err == nil {
		err = b.lim.checkPending(len(b.pending))
	}
	return err
}

func (b *taggerBackend) Close() error { return b.tg.Close() }

func (b *taggerBackend) Matches() []stream.Match {
	out := b.pending
	b.pending = nil
	return out
}

// DrainMatches hands the confirmed matches to the caller and adopts buf as
// the new pending buffer, letting the pipeline recycle match slices.
func (b *taggerBackend) DrainMatches(buf []stream.Match) []stream.Match {
	out := b.pending
	b.pending = buf[:0]
	return out
}

func (b *taggerBackend) Counters() Counters {
	return Counters{
		Bytes:      b.bytes,
		Matches:    b.matches,
		Recoveries: b.tg.Errors,
		Collisions: b.tg.Collisions,
	}
}
