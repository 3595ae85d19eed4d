package runtime

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"cfgtag/internal/core"
	"cfgtag/internal/grammar"
	"cfgtag/internal/stream"
)

func compileT(t *testing.T, g *grammar.Grammar, opts core.Options) *core.Spec {
	t.Helper()
	spec, err := core.Compile(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// factories builds all four backends for one spec; the parser factory is
// omitted when the grammar is not LL(1).
func factories(t *testing.T, spec *core.Spec) map[string]Factory {
	t.Helper()
	out := map[string]Factory{
		"stream": mustBuild(t, KindStream, spec, BuildOptions{}),
		"dfa":    DFAFactory(spec, 0),
	}
	gf, err := buildF(KindGates, spec, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out["gates"] = gf
	if pf, err := buildF(KindParser, spec, BuildOptions{}); err == nil {
		out["parser"] = pf
	}
	return out
}

func TestBackendsAgreeOnIfThenElse(t *testing.T) {
	spec := compileT(t, grammar.IfThenElse(), core.Options{})
	input := []byte("if true then go else stop")

	want := stream.NewTagger(spec).Tag(input)
	if len(want) == 0 {
		t.Fatal("reference tagger found nothing")
	}
	for name, f := range factories(t, spec) {
		b, err := f(0, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := b.Feed(input); err != nil {
			t.Fatalf("%s: feed: %v", name, err)
		}
		if err := b.Close(); err != nil {
			t.Fatalf("%s: close: %v", name, err)
		}
		got := b.Matches()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: matches = %v, want %v", name, got, want)
		}
		c := b.Counters()
		if c.Bytes != int64(len(input)) {
			t.Errorf("%s: counted %d bytes, want %d", name, c.Bytes, len(input))
		}
		if c.Matches != int64(len(want)) {
			t.Errorf("%s: counted %d matches, want %d", name, c.Matches, len(want))
		}
	}
}

func TestBackendMatchesDrain(t *testing.T) {
	spec := compileT(t, grammar.IfThenElse(), core.Options{})
	for name, f := range factories(t, spec) {
		b, err := f(0, nil)
		if err != nil {
			t.Fatal(err)
		}
		input := []byte("if true then go else stop")
		b.Feed(input[:10])
		first := len(b.Matches())
		b.Feed(input[10:])
		b.Close()
		rest := len(b.Matches())
		if again := b.Matches(); len(again) != 0 {
			t.Errorf("%s: second drain returned %d matches, want 0", name, len(again))
		}
		want := len(stream.NewTagger(spec).Tag(input))
		if first+rest != want {
			t.Errorf("%s: drained %d+%d matches, want %d total", name, first, rest, want)
		}
	}
}

func TestBackendResetReuse(t *testing.T) {
	spec := compileT(t, grammar.IfThenElse(), core.Options{})
	input := []byte("if true then go else stop")
	want := stream.NewTagger(spec).Tag(input)
	for name, f := range factories(t, spec) {
		b, err := f(0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 3; round++ {
			b.Reset()
			if err := b.Feed(input); err != nil {
				t.Fatalf("%s round %d: %v", name, round, err)
			}
			if err := b.Close(); err != nil {
				t.Fatalf("%s round %d: %v", name, round, err)
			}
			if got := b.Matches(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s round %d: matches = %v, want %v", name, round, got, want)
			}
		}
	}
}

func TestBackendFeedAfterClose(t *testing.T) {
	spec := compileT(t, grammar.IfThenElse(), core.Options{})
	for name, f := range factories(t, spec) {
		b, err := f(0, nil)
		if err != nil {
			t.Fatal(err)
		}
		b.Feed([]byte("go"))
		b.Close()
		if err := b.Feed([]byte("x")); err == nil {
			t.Errorf("%s: Feed after Close succeeded", name)
		}
	}
}

func TestParserBackendRejects(t *testing.T) {
	spec := compileT(t, grammar.IfThenElse(), core.Options{})
	pf, err := buildF(KindParser, spec, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := pf(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	b.Feed([]byte("if true go")) // missing "then"
	if err := b.Close(); err == nil {
		t.Error("parser backend accepted a non-sentence")
	}
	if ms := b.Matches(); len(ms) != 0 {
		t.Errorf("parser backend emitted %d matches on reject", len(ms))
	}
}

func TestTaggerBackendRecoveryCounter(t *testing.T) {
	spec := compileT(t, grammar.IfThenElse(), core.Options{Recovery: core.RecoveryRestart})
	b, err := mustBuild(t, KindStream, spec, BuildOptions{})(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	b.Feed([]byte("if true ### then go"))
	b.Close()
	if c := b.Counters(); c.Recoveries == 0 {
		t.Error("corrupt input produced no recovery events")
	}
}

func TestDFABackendRecoveryCounter(t *testing.T) {
	spec := compileT(t, grammar.IfThenElse(), core.Options{Recovery: core.RecoveryRestart})
	b, err := DFAFactory(spec, 0)(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	b.Feed([]byte("if true ### then go"))
	b.Close()
	if c := b.Counters(); c.Recoveries == 0 {
		t.Error("corrupt input produced no recovery events")
	}
}

// TestDFABackendCacheStats checks the cache counters surface on the
// backend's Counters and that a tiny bound actually resets.
func TestDFABackendCacheStats(t *testing.T) {
	spec := compileT(t, grammar.IfThenElse(), core.Options{})
	b, err := DFAFactory(spec, 2)(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("if true then go else stop")
	for round := 0; round < 3; round++ {
		b.Reset()
		b.Feed(input)
		b.Close()
	}
	c := b.Counters()
	if c.CacheMisses == 0 {
		t.Error("no cache misses counted")
	}
	if c.CacheResets == 0 {
		t.Error("two-state cache never reset")
	}
}

// failMarker makes failingBackend's Feed fail after the inner backend
// consumed the chunk.
var failMarker = []byte("#FAIL#")

// failingBackend exercises the pipeline's post-fault path: a chunk
// carrying failMarker is fed through and then reported as an error.
type failingBackend struct{ Backend }

func (b *failingBackend) Feed(p []byte) error {
	if err := b.Backend.Feed(p); err != nil {
		return err
	}
	if bytes.Contains(p, failMarker) {
		return errors.New("injected feed failure")
	}
	return nil
}

func (b *failingBackend) Unwrap() Backend { return b.Backend }

// TestMetricsReconcileCounters runs every backend kind through a pipeline
// and checks that the metrics the shards fold equal, at quiescence, the
// sum of each stream's final Counters. The streams take every path that
// ends in a fold: plain feeds, CloseStream, MaxStreams eviction, pipeline
// Close and a failed Feed followed by its post-fault Close.
func TestMetricsReconcileCounters(t *testing.T) {
	plain := compileT(t, grammar.IfThenElse(), core.Options{})
	recovering := compileT(t, grammar.IfThenElse(), core.Options{Recovery: core.RecoveryRestart})
	sentence := "if true then go else stop"
	// The recovering paths see corrupt bytes between sentences; the exact
	// paths need one sentence per stream.
	noisy := sentence + " ### " + sentence
	cases := []struct {
		name    string
		factory Factory
		input   string
		// wantRecoveries and wantResets demand nonzero totals.
		wantRecoveries, wantResets bool
	}{
		{"stream", mustBuild(t, KindStream, recovering, BuildOptions{}), noisy, true, false},
		{"dfa", DFAFactory(recovering, 2), noisy, true, true},
		{"aot", mustBuild(t, KindAOT, recovering, BuildOptions{}), noisy, true, false},
		{"gates", mustBuild(t, KindGates, plain, BuildOptions{}), sentence, false, false},
		{"parser", mustBuild(t, KindParser, plain, BuildOptions{}), sentence, false, false},
		{"earley", mustBuild(t, KindEarley, plain, BuildOptions{}), sentence, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			var backends []Backend
			factory := func(shard int, h *Hooks) (Backend, error) {
				b, err := tc.factory(shard, h)
				if err != nil {
					return nil, err
				}
				fb := &failingBackend{Backend: b}
				mu.Lock()
				backends = append(backends, fb)
				mu.Unlock()
				return fb, nil
			}
			var mc MetricCounters
			p, err := NewPipeline(Config{
				Shards:     2,
				MaxStreams: 1,
				Quarantine: -1,
				BatchBytes: -1,
				Factory:    factory,
				Hooks:      &Hooks{Metrics: &mc},
			}, SinkFunc(func(*Batch) error { return nil }))
			if err != nil {
				t.Fatal(err)
			}
			in := []byte(tc.input)
			for i := 0; i < 12; i++ {
				key := fmt.Sprintf("s%d", i)
				for off := 0; off < len(in); off += 7 {
					if err := p.Send(key, in[off:min(off+7, len(in))]); err != nil {
						t.Fatal(err)
					}
				}
				switch i % 4 {
				case 0: // left open: evicted by a later stream or flushed by Close
				case 1:
					if err := p.Send(key, failMarker); err != nil {
						t.Fatal(err)
					}
				default:
					if err := p.CloseStream(key); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			var want Counters
			for _, b := range backends {
				c := b.Counters()
				want.Bytes += c.Bytes
				want.Matches += c.Matches
				want.Recoveries += c.Recoveries
				want.Collisions += c.Collisions
				want.CacheHits += c.CacheHits
				want.CacheMisses += c.CacheMisses
				want.CacheResets += c.CacheResets
			}
			got, _ := mc.Snapshot()
			if got != want {
				t.Fatalf("metrics %+v, want the streams' summed Counters %+v", got, want)
			}
			if got.Bytes == 0 || got.Matches == 0 {
				t.Errorf("no traffic counted: %+v", got)
			}
			if tc.wantRecoveries && got.Recoveries == 0 {
				t.Error("recovering grammar counted no recoveries")
			}
			if tc.wantResets && got.CacheResets == 0 {
				t.Error("two-state cache counted no resets")
			}
			if f := mc.Faults(); f.StreamsEvicted == 0 {
				t.Error("no stream took the eviction path")
			}
		})
	}
}

// TestEventKindNames pins the stable event names log and metric
// renderers key on.
func TestEventKindNames(t *testing.T) {
	seen := map[string]bool{}
	for k := EventPanic; k < numEventKinds; k++ {
		name := k.String()
		if name == "unknown" || seen[name] {
			t.Errorf("EventKind(%d).String() = %q, want a unique name", k, name)
		}
		seen[name] = true
	}
	if got := EventBreakerShed.String(); got != "breaker_shed" {
		t.Errorf("EventBreakerShed = %q, want breaker_shed", got)
	}
	if got := EventKind(0).String(); got != "unknown" {
		t.Errorf("EventKind(0) = %q, want unknown", got)
	}
}
