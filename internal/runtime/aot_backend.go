package runtime

import (
	"cfgtag/internal/aot"
	"cfgtag/internal/core"
	"cfgtag/internal/stream"
)

// aotBackend adapts the ahead-of-time compiled tables — the lazy DFA's
// determinization run to closure offline — to the Backend contract. The
// hot path is table-driven and allocation-free the way the synthesized
// hardware is: no hash probes, no atomic loads, no fills, no cache resets.
// The trade is paid at factory build time (compile can fail on grammars
// that do not close within the state budget), which is exactly where the
// platform wants it: once per grammar version, amortized over every
// stream of every reload.
type aotBackend struct {
	matchBuf
	r *aot.Runner
}

// buildAOT determinizes the grammar to closure once, here, and mints
// per-stream runners over the shared tables. It fails when the grammar
// does not close within o.AOT.MaxStates states (0 =
// stream.DefaultDFAMaxStates) — unlike the lazy path there is no
// reset-and-rebuild fallback, by design. The tables' footprint is charged
// to the version (and so to Limits.Mem) until Release.
// MaxPendingMatches bounds each stream's undrained match buffer.
func buildAOT(spec *core.Spec, o BuildOptions, c *charge) (Built, error) {
	prog, err := aot.Compile(spec, o.AOT)
	if err != nil {
		return Built{}, err
	}
	stats := prog.Stats()
	c.add(int64(stats.TableBytes))
	lim := o.Limits
	return Built{Stats: stats, Factory: func(int, *Hooks) (Backend, error) {
		b := &aotBackend{matchBuf: matchBuf{lim: lim}, r: prog.NewRunner()}
		b.r.OnMatch = b.add
		return b, nil
	}}, nil
}

func (b *aotBackend) Reset()              { b.r.Reset(); b.reset() }
func (b *aotBackend) Feed(p []byte) error { return b.fed(b.r.Write(p)) }
func (b *aotBackend) Close() error        { return b.r.Close() }

// CompileStats reports the shared program's offline compile cost.
func (b *aotBackend) CompileStats() stream.CompileStats { return b.r.Program().Stats() }

func (b *aotBackend) Counters() Counters {
	return Counters{
		Bytes:      b.bytes,
		Matches:    b.matches,
		Recoveries: b.r.Errors,
		Collisions: b.r.Collisions,
		// No cache counters: the whole point of the path is that there is
		// no cache — every transition was computed before the first byte.
	}
}
