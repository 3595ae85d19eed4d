package cfgtag

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"cfgtag/internal/runtime"
	"cfgtag/internal/stream"
	"cfgtag/internal/xmlrpc"
)

// contextMatch assembles a Match the way the facade did before per-instance
// templates: from the instance wiring, rendering the context on the spot.
func contextMatch(e *Engine, id int, end int64) Match {
	in := e.Spec().Instances[id]
	return Match{
		Term:        in.Term,
		Context:     in.Context(e.Spec().Grammar),
		Index:       in.Index,
		End:         end,
		SentenceEnd: in.CanEnd,
		InstanceID:  in.ID,
	}
}

// TestMatchTemplateEquivalence checks that the compile-time templates give
// every instance of every shipped grammar the same tag the per-detection
// rendering gave, under each option set that changes the instance wiring.
func TestMatchTemplateEquivalence(t *testing.T) {
	files, err := filepath.Glob("grammars/*.y")
	if err != nil || len(files) == 0 {
		t.Fatalf("no grammar files found: %v", err)
	}
	optionSets := map[string][]Option{
		"default":                     nil,
		"without-context-duplication": {WithoutContextDuplication()},
		"without-longest-match":       {WithoutLongestMatch()},
	}
	ruleless := 0
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for name, opts := range optionSets {
			engine, err := Compile(f, string(src), opts...)
			if err != nil {
				t.Fatalf("%s/%s: %v", f, name, err)
			}
			for i, in := range engine.Spec().Instances {
				if in.Rule < 0 {
					ruleless++
				}
				for _, end := range []int64{0, 1, 4095, 1 << 40} {
					got := engine.match(stream.Match{InstanceID: i, End: end})
					if want := contextMatch(engine, i, end); got != want {
						t.Errorf("%s/%s: instance %d end %d: got %+v, want %+v", f, name, i, end, got, want)
					}
					if in.Rule < 0 && got.Context != got.Term {
						t.Errorf("%s/%s: instance %d has no rule but Context %q != Term %q", f, name, i, got.Context, got.Term)
					}
				}
			}
		}
	}
	if ruleless == 0 {
		t.Error("no instance without a rule: the WithoutContextDuplication case went unchecked")
	}
}

// TestParserTemplateEquivalence checks Parser.Parse against matches
// assembled from the raw LL(1) tags on an XML-RPC message corpus.
func TestParserTemplateEquivalence(t *testing.T) {
	engine, err := Compile("xmlrpc", XMLRPCSource)
	if err != nil {
		t.Fatal(err)
	}
	p, err := engine.NewParser()
	if err != nil {
		t.Fatal(err)
	}
	gen := xmlrpc.NewGenerator(424242, xmlrpc.Options{})
	for i := 0; i < 50; i++ {
		msg, _ := gen.Message()
		got, err := p.Parse([]byte(msg))
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		raw, err := p.table.Parse([]byte(msg))
		if err != nil {
			t.Fatal(err)
		}
		want := make([]Match, len(raw))
		for j, tag := range raw {
			want[j] = contextMatch(engine, engine.spec.InstanceAt(tag.Rule, tag.Pos).ID, int64(tag.End))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("message %d: Parse = %+v, want %+v", i, got, want)
		}
	}
}

// TestTagDeliveryAllocsFlat pins the facade's batch delivery at one
// allocation, the TagBatch header, whatever the batch's tag count: tags are
// copied from the instance templates into a pooled array.
func TestTagDeliveryAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	engine, err := Compile("xmlrpc", XMLRPCSource)
	if err != nil {
		t.Fatal(err)
	}
	tags := 0
	sink := func(b *TagBatch) error {
		tags += len(b.Tags)
		return nil
	}
	allocs := func(n int) float64 {
		b := &runtime.Batch{Key: "k", Data: []byte("x"), Tags: make([]stream.Match, n)}
		for i := range b.Tags {
			b.Tags[i] = stream.Match{InstanceID: i % len(engine.Spec().Instances), End: int64(i)}
		}
		engine.deliverBatch(b, sink) // warm the pool
		return testing.AllocsPerRun(100, func() { engine.deliverBatch(b, sink) })
	}
	one, many := allocs(1), allocs(512)
	if one != many || one > 1 {
		t.Errorf("allocs per delivery: 1 tag = %v, 512 tags = %v; want both 1 (the header)", one, many)
	}
	if tags == 0 {
		t.Error("sink saw no tags")
	}
}
