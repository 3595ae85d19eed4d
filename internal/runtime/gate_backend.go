package runtime

import (
	"cfgtag/internal/core"
	"cfgtag/internal/hwgen"
	"cfgtag/internal/stream"
)

// gateBackend adapts the cycle-accurate gate-level simulation of the
// generated netlist. It is the fidelity-over-speed end of the spectrum:
// ~100× slower than the bit-parallel engine but bit-for-bit the hardware.
//
// The netlist's recovery and collision behavior is folded into its detect
// outputs rather than surfaced as counters, so Recoveries and Collisions
// read zero here; differential tests compare match sets, where the same
// events are visible.
type gateBackend struct {
	r       *hwgen.Runner
	pending []stream.Match
	bytes   int64
	matches int64
	closed  bool
}

// GateFactory returns a Factory producing gate-level simulations of the
// spec's generated design. The netlist is generated once and shared
// read-only; each Backend instantiates its own simulator state.
func GateFactory(spec *core.Spec) (Factory, error) {
	d, err := hwgen.Generate(spec, hwgen.Options{})
	if err != nil {
		return nil, err
	}
	return func(int, *Hooks) (Backend, error) {
		r, err := hwgen.NewRunner(d)
		if err != nil {
			return nil, err
		}
		b := &gateBackend{r: r}
		b.Reset()
		return b, nil
	}, nil
}

func (b *gateBackend) Reset() {
	b.r.Begin()
	b.pending = b.pending[:0]
	b.bytes = 0
	b.matches = 0
	b.closed = false
}

func (b *gateBackend) emit(m stream.Match) {
	b.pending = append(b.pending, m)
	b.matches++
}

func (b *gateBackend) Feed(p []byte) error {
	if b.closed {
		return errClosed
	}
	b.r.Feed(p, b.emit)
	b.bytes += int64(len(p))
	return nil
}

func (b *gateBackend) Close() error {
	if b.closed {
		return nil
	}
	b.closed = true
	b.r.Finish(b.emit)
	return nil
}

func (b *gateBackend) Matches() []stream.Match {
	out := b.pending
	b.pending = nil
	return out
}

func (b *gateBackend) Counters() Counters {
	return Counters{Bytes: b.bytes, Matches: b.matches}
}
