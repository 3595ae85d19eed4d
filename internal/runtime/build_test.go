package runtime

import (
	"errors"
	"testing"

	"cfgtag/internal/core"
	"cfgtag/internal/grammar"
	"cfgtag/internal/stream"
	"cfgtag/internal/xmlrpc"
)

// allKinds lists every execution path Build knows.
var allKinds = []Kind{KindStream, KindDFA, KindAOT, KindGates, KindParser, KindEarley}

// buildF is Build reduced to its Factory, for call sites that check the
// error themselves.
func buildF(kind Kind, spec *core.Spec, o BuildOptions) (Factory, error) {
	b, err := Build(kind, spec, o)
	return b.Factory, err
}

// mustBuild is buildF failing the test on error.
func mustBuild(t testing.TB, kind Kind, spec *core.Spec, o BuildOptions) Factory {
	t.Helper()
	f, err := buildF(kind, spec, o)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestBuildContract(t *testing.T) {
	spec := compileT(t, grammar.XMLRPC(), core.Options{})

	t.Run("unknown-kind", func(t *testing.T) {
		if _, err := Build("fpga", spec, BuildOptions{}); !errors.Is(err, ErrInvalidConfig) {
			t.Fatalf("Build(fpga) = %v, want ErrInvalidConfig", err)
		}
	})

	t.Run("negative-limit", func(t *testing.T) {
		for _, k := range append([]Kind{""}, allKinds...) {
			_, err := Build(k, spec, BuildOptions{Limits: Limits{MaxPendingMatches: -1}})
			if !errors.Is(err, ErrInvalidConfig) {
				t.Errorf("%q: Build with negative limit = %v, want ErrInvalidConfig", k, err)
			}
		}
	})

	t.Run("parser-rejects-non-LL1", func(t *testing.T) {
		g, err := grammar.Parse("nonll1", "%%\nS : \"a\" \"b\" | \"a\" \"c\" ;\n")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Build(KindParser, compileT(t, g, core.Options{}), BuildOptions{}); err == nil {
			t.Error("Build(parser) accepted a non-LL(1) grammar")
		}
	})

	t.Run("release-and-stats", func(t *testing.T) {
		for _, k := range append([]Kind{""}, allKinds...) {
			b, err := Build(k, spec, BuildOptions{})
			if err != nil {
				t.Fatalf("%q: %v", k, err)
			}
			if b.Factory == nil || b.Release == nil {
				t.Fatalf("%q: Factory or Release is nil", k)
			}
			b.Release()
			if got, want := b.Stats != (stream.CompileStats{}), k == KindAOT; got != want {
				t.Errorf("%q: nonzero Stats = %v, want %v (%+v)", k, got, want, b.Stats)
			}
		}
	})

	// Live traffic grows the dfa cache and the aot tables were charged at
	// compile time; Release must hand back exactly the version's charge,
	// once, leaving whatever else the gauge holds untouched.
	t.Run("release-discharges-version", func(t *testing.T) {
		corpus, _ := xmlrpc.NewGenerator(3, xmlrpc.Options{}).Corpus(1)
		for _, k := range []Kind{KindDFA, KindAOT} {
			g := &MemGauge{}
			const base = 1000 // someone else's charge on the shared gauge
			g.Add(base)
			b, err := Build(k, spec, BuildOptions{Limits: Limits{Mem: g}})
			if err != nil {
				t.Fatalf("%s: %v", k, err)
			}
			for i := 0; i < 3; i++ {
				be, err := b.Factory(0, nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := be.Feed([]byte(corpus)); err != nil {
					t.Fatalf("%s: feed: %v", k, err)
				}
				if err := be.Close(); err != nil {
					t.Fatalf("%s: close: %v", k, err)
				}
				if len(be.Matches()) == 0 {
					t.Fatalf("%s: no matches on a conforming message", k)
				}
			}
			if g.Load() <= base {
				t.Fatalf("%s: gauge %d after live traffic, want > %d", k, g.Load(), base)
			}
			b.Release()
			if got := g.Load(); got != base {
				t.Errorf("%s: gauge after Release = %d, want %d", k, got, base)
			}
			b.Release()
			if got := g.Load(); got != base {
				t.Errorf("%s: gauge after second Release = %d, want %d", k, got, base)
			}
		}
	})
}
