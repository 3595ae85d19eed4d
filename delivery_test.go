// Delivery-path tests against the serial oracle: concurrent sink workers
// rendering pooled tag arrays, and dead-lettered batches. Lives in package
// cfgtag_test because the serve layer imports cfgtag.
package cfgtag_test

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"cfgtag"
	"cfgtag/internal/serve"
	"cfgtag/internal/workload"
)

const deliveryChunk = 4 << 10

// sentenceStream concatenates random conforming sentences of the engine's
// grammar until the stream holds at least n bytes.
func sentenceStream(engine *cfgtag.Engine, seed int64, n int) []byte {
	gen := workload.NewGenerator(engine.Spec(), seed, workload.SentenceOptions{})
	var out []byte
	for len(out) < n {
		s, _ := gen.Sentence()
		out = append(out, s...)
		out = append(out, ' ')
	}
	return out
}

// oracleTags tags data on the serial Backend b from stream start, fed in
// the same chunks the pipeline receives.
func oracleTags(t *testing.T, b *cfgtag.Backend, data []byte) []cfgtag.Match {
	t.Helper()
	b.Reset()
	var tags []cfgtag.Match
	for off := 0; off < len(data); off += deliveryChunk {
		if err := b.Feed(data[off:min(off+deliveryChunk, len(data))]); err != nil {
			t.Fatal(err)
		}
		tags = append(tags, b.Matches()...)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	return append(tags, b.Matches()...)
}

// oracleText renders a whole stream's tags in the serve wire format.
func oracleText(t *testing.T, b *cfgtag.Backend, data []byte) string {
	t.Helper()
	total := 0
	return string(serve.AppendBatchText(nil, "", &cfgtag.TagBatch{Tags: oracleTags(t, b, data), EOS: true}, &total))
}

// TestTagDeliveryTenantsMatchOracle runs two tenants with four sink workers
// each and renders every batch inside its deliver callback: a Tags array
// reused while a worker still reads it would corrupt some stream's text
// (and trip -race).
func TestTagDeliveryTenantsMatchOracle(t *testing.T) {
	tenants := []struct {
		name, src string
		kind      cfgtag.BackendKind
	}{
		{"rpc", cfgtag.XMLRPCSource, cfgtag.AOTBackend},
		{"nl", cfgtag.EnglishSource, cfgtag.DFABackend},
	}
	cfg := &cfgtag.PlatformConfig{}
	engines := make(map[string]*cfgtag.Engine)
	oracles := make(map[string]*cfgtag.Backend)
	for _, tn := range tenants {
		cfg.Tenants = append(cfg.Tenants, cfgtag.TenantDef{
			Name:        tn.name,
			Grammar:     tn.src,
			Options:     []string{"free-running-start"},
			Backend:     string(tn.kind),
			Shards:      4,
			SinkWorkers: 4,
		})
		e, err := cfgtag.Compile(tn.name, tn.src, cfgtag.FreeRunningStart())
		if err != nil {
			t.Fatal(err)
		}
		engines[tn.name] = e
		if oracles[tn.name], err = e.NewBackend(tn.kind); err != nil {
			t.Fatal(err)
		}
	}

	type rendered struct {
		buf   []byte
		total int
	}
	var mu sync.Mutex
	out := make(map[string]*rendered)
	p, err := cfgtag.NewPlatform(cfg, func(tenant string, b *cfgtag.TagBatch) error {
		mu.Lock()
		r := out[tenant+"/"+b.Stream]
		if r == nil {
			r = &rendered{}
			out[tenant+"/"+b.Stream] = r
		}
		mu.Unlock()
		r.buf = serve.AppendBatchText(r.buf, "", b, &r.total)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	const streams, senders = 200, 4
	type streamIn struct {
		tenant, key string
		data        []byte
	}
	in := make([]streamIn, streams)
	for i := range in {
		tn := tenants[i%len(tenants)]
		in[i] = streamIn{tn.name, fmt.Sprintf("s%d", i), sentenceStream(engines[tn.name], int64(i), (i%5+1)*2<<10)}
	}
	var wg sync.WaitGroup
	errs := make(chan error, senders)
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Chunks of this sender's streams go out round-robin, so
			// shards coalesce several streams into one dispatch.
			for off, sent := 0, true; sent; off += deliveryChunk {
				sent = false
				for i := w; i < streams; i += senders {
					s := in[i]
					if off >= len(s.data) {
						continue
					}
					sent = true
					if err := p.Send(s.tenant, s.key, s.data[off:min(off+deliveryChunk, len(s.data))]); err != nil {
						errs <- err
						return
					}
					if off+deliveryChunk >= len(s.data) {
						if err := p.CloseStream(s.tenant, s.key); err != nil {
							errs <- err
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	tags := 0
	for _, s := range in {
		r := out[s.tenant+"/"+s.key]
		if r == nil {
			t.Fatalf("%s/%s: nothing delivered", s.tenant, s.key)
		}
		if want := oracleText(t, oracles[s.tenant], s.data); string(r.buf) != want {
			t.Fatalf("%s/%s: delivered text differs from the serial oracle\ngot:\n%s\nwant:\n%s", s.tenant, s.key, r.buf, want)
		}
		tags += r.total
	}
	if tags == 0 {
		t.Fatal("no stream produced tags")
	}
}

var errSinkDown = errors.New("sink down for this key")

// TestDeadLetterTagsMatchOracle fails every delivery of one stream: its
// batches, copied inside DeadLetter, must carry exactly the oracle's tags
// and bytes, while the other streams deliver normally.
func TestDeadLetterTagsMatchOracle(t *testing.T) {
	engine, err := cfgtag.Compile("xmlrpc", cfgtag.XMLRPCSource, cfgtag.FreeRunningStart())
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	delivered := make(map[string][]cfgtag.Match)
	deadTags := make(map[string][]cfgtag.Match)
	deadData := make(map[string][]byte)
	p, err := engine.NewPipeline(cfgtag.PipelineConfig{
		Backend:      cfgtag.AOTBackend,
		Shards:       2,
		SinkAttempts: 2,
		SinkBackoff:  time.Microsecond,
		DeadLetter: func(b *cfgtag.TagBatch, err error) {
			if !errors.Is(err, errSinkDown) {
				t.Errorf("%s: dead-letter error %v, want %v", b.Stream, err, errSinkDown)
			}
			mu.Lock()
			defer mu.Unlock()
			deadTags[b.Stream] = append(deadTags[b.Stream], b.Tags...)
			deadData[b.Stream] = append(deadData[b.Stream], b.Data...)
		},
	}, func(b *cfgtag.TagBatch) error {
		if b.Stream == "poison" {
			return errSinkDown
		}
		mu.Lock()
		defer mu.Unlock()
		delivered[b.Stream] = append(delivered[b.Stream], b.Tags...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	data := map[string][]byte{}
	for i, key := range []string{"poison", "a", "b"} {
		data[key] = sentenceStream(engine, int64(i), 16<<10)
	}
	for off, sent := 0, true; sent; off += deliveryChunk {
		sent = false
		for _, key := range []string{"poison", "a", "b"} {
			if d := data[key]; off < len(d) {
				sent = true
				if err := p.Send(key, d[off:min(off+deliveryChunk, len(d))]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	oracle, err := engine.NewBackend(cfgtag.AOTBackend)
	if err != nil {
		t.Fatal(err)
	}
	if want := oracleTags(t, oracle, data["poison"]); len(want) == 0 || !reflect.DeepEqual(deadTags["poison"], want) {
		t.Errorf("dead-lettered %d tags differ from the oracle's %d", len(deadTags["poison"]), len(want))
	}
	if string(deadData["poison"]) != string(data["poison"]) {
		t.Errorf("dead-lettered %d bytes differ from the %d sent", len(deadData["poison"]), len(data["poison"]))
	}
	for _, key := range []string{"a", "b"} {
		if len(deadTags[key]) != 0 || len(deadData[key]) != 0 {
			t.Errorf("%s: healthy stream was dead-lettered", key)
		}
		if want := oracleTags(t, oracle, data[key]); !reflect.DeepEqual(delivered[key], want) {
			t.Errorf("%s: delivered %d tags differ from the oracle's %d", key, len(delivered[key]), len(want))
		}
	}
}
