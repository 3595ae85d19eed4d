package runtime

import (
	"cfgtag/internal/core"
	"cfgtag/internal/hwgen"
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
	matchBuf
	r      *hwgen.Runner
	closed bool
}

// buildGates generates the spec's netlist once and shares it read-only;
// each Backend instantiates its own simulator state. It is the hardware
// reference, not a production path, so it ignores every limit (tenant
// memory budgets still see its arenas).
func buildGates(spec *core.Spec, _ BuildOptions, _ *charge) (Built, error) {
	d, err := hwgen.Generate(spec, hwgen.Options{})
	if err != nil {
		return Built{}, err
	}
	return Built{Factory: func(int, *Hooks) (Backend, error) {
		r, err := hwgen.NewRunner(d)
		if err != nil {
			return nil, err
		}
		b := &gateBackend{r: r}
		b.Reset()
		return b, nil
	}}, nil
}

func (b *gateBackend) Reset() {
	b.r.Begin()
	b.reset()
	b.closed = false
}

func (b *gateBackend) Feed(p []byte) error {
	if b.closed {
		return errClosed
	}
	b.r.Feed(p, b.add)
	b.bytes += int64(len(p))
	return nil
}

func (b *gateBackend) Close() error {
	if b.closed {
		return nil
	}
	b.closed = true
	b.r.Finish(b.add)
	return nil
}

func (b *gateBackend) Counters() Counters {
	return Counters{Bytes: b.bytes, Matches: b.matches}
}
