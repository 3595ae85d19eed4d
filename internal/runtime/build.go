package runtime

import (
	"sync/atomic"

	"cfgtag/internal/aot"
	"cfgtag/internal/core"
	"cfgtag/internal/stream"
)

// Kind names one of the six execution paths a Factory can run.
type Kind string

const (
	KindStream Kind = "stream" // bit-parallel software tagger
	KindDFA    Kind = "dfa"    // lazily determinized, cached transitions
	KindAOT    Kind = "aot"    // determinized to closure ahead of time
	KindGates  Kind = "gates"  // cycle-accurate netlist simulation
	KindParser Kind = "parser" // LL(1) predictive parser
	KindEarley Kind = "earley" // exact-language Earley recognizer
)

// builders is the one table of execution paths. Each entry compiles a
// spec into one version's shared state, charges that state through c
// (never Limits.Mem directly), and returns the per-stream Factory over it.
var builders = map[Kind]func(spec *core.Spec, o BuildOptions, c *charge) (Built, error){
	KindStream: buildTagger,
	KindDFA:    buildDFA,
	KindAOT:    buildAOT,
	KindGates:  buildGates,
	KindParser: buildParser,
	KindEarley: buildEarley,
}

// Known reports whether k names an execution path ("" counts as stream).
func (k Kind) Known() bool {
	_, ok := builders[k]
	return ok || k == ""
}

// BuildOptions configures one Build. Limits bounds each stream and
// carries the gauge the version is charged to; DFA and AOT tune those
// paths (state budgets, NoAccel). Build owns DFA.MemDelta.
type BuildOptions struct {
	Limits Limits
	DFA    stream.DFAConfig
	AOT    aot.Config
}

// Built is one version of an execution path.
type Built struct {
	// Factory mints per-stream backends over the shared compiled state.
	Factory Factory
	// Release discharges what Build charged to Limits.Mem (the dfa cache
	// grown so far, the aot tables) once the version's last stream has
	// ended. Never nil; a second call discharges nothing more.
	Release func()
	// Stats is the aot path's offline compile report (zero otherwise).
	Stats stream.CompileStats
}

// Build compiles spec into one version of the kind's execution path ("" =
// stream): the netlist, parse table, recognizer, DFA cache or aot tables
// are built once here, and the Factory mints cheap per-stream backends
// from them. It is the only place a version's shared state is charged to
// o.Limits.Mem. Unknown kinds and invalid limits fail with errors wrapping
// ErrInvalidConfig; gates, parser, earley and aot can also reject the
// grammar.
func Build(kind Kind, spec *core.Spec, o BuildOptions) (Built, error) {
	if kind == "" {
		kind = KindStream
	}
	build, ok := builders[kind]
	if !ok {
		return Built{}, &ConfigError{Field: "Kind", Value: kind, Reason: "unknown backend kind"}
	}
	if err := o.Limits.Validate(); err != nil {
		return Built{}, err
	}
	c := &charge{mem: o.Limits.Mem}
	b, err := build(spec, o, c)
	if err != nil {
		c.release()
		return Built{}, err
	}
	b.Release = c.release
	return b, nil
}

// charge is one version's running memory-gauge charge.
type charge struct {
	mem *MemGauge
	n   atomic.Int64
}

func (c *charge) add(d int64) {
	c.n.Add(d)
	c.mem.Add(d)
}

func (c *charge) release() { c.mem.Add(-c.n.Swap(0)) }

// AOTFactory is Build(KindAOT) with a state budget (0 = default) and no
// gauge. It stays only because the benchmark module's
// perfbench/harness/ladder.go compiles against it; new code calls Build.
func AOTFactory(spec *core.Spec, maxStates int) (Factory, error) {
	b, err := Build(KindAOT, spec, BuildOptions{AOT: aot.Config{MaxStates: maxStates}})
	return b.Factory, err
}

// DFAFactory is Build(KindDFA) with a cache bound (0 = default) and no
// gauge. It stays only because the benchmark module's
// perfbench/harness/ladder.go compiles against it; new code calls Build.
func DFAFactory(spec *core.Spec, maxStates int) Factory {
	b, _ := Build(KindDFA, spec, BuildOptions{DFA: stream.DFAConfig{MaxStates: maxStates}})
	return b.Factory
}
