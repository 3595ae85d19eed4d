package harness

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cfgtag"
	"cfgtag/internal/runtime"
	"cfgtag/internal/serve"
)

// Span layers. The first four are recorded in the server at the layer
// boundaries, from wrappers around the calls; stream spans are recorded
// by the load generator.
const (
	spanSend    = "platform.send"  // serve -> platform: Core.Send
	spanDeliver = "serve.deliver"  // platform -> serve: Server.Deliver
	spanFeed    = "engine.feed"    // pipeline -> engine: Backend.Feed
	spanFactory = "engine.factory" // pipeline -> engine: backend construction
	spanS2D     = "pipeline.s2d"   // a chunk's Send to the delivery covering its last byte
	spanStream  = "gen.stream"     // one client stream, start to final line
)

const (
	// maxSpans bounds the in-memory span buffer (under 400 MB); later
	// spans are counted as dropped. A 6 s bulk-sparse window records
	// about 1.9M.
	maxSpans = 4 << 20
	// slowSendNano is where a Send counts as blocked.
	slowSendNano = 100 * int64(time.Microsecond)
)

// Span is one timed call at a layer boundary. Spans of one stream share
// its tenant and key; engine spans carry the backend id instead, since a
// backend never learns its stream's key.
type Span struct {
	Layer       string
	Tenant, Key string
	ID          int64
	Start, End  int64 // Unix nanoseconds
	N, M        int64 // bytes, and tags where the layer sees them
}

func now() int64 { return time.Now().UnixNano() }

// Tracer records spans in memory while on; WriteSpans writes them once,
// at exit. It also pairs every chunk's Send with the delivery that covers
// its last byte, which needs per-stream byte offsets kept while off.
type Tracer struct {
	on      atomic.Bool
	ids     atomic.Int64
	mu      sync.Mutex
	spans   []Span
	dropped int64
	offsets map[streamKey]*streamOffsets
}

type streamKey struct{ tenant, key string }

type streamOffsets struct {
	sent, delivered int64
	pend            []pendingChunk
}

type pendingChunk struct{ end, at int64 }

// NewTracer returns a tracer that records nothing until SetOn(true).
func NewTracer() *Tracer { return &Tracer{offsets: make(map[streamKey]*streamOffsets)} }

// SetOn starts or stops recording.
func (t *Tracer) SetOn(on bool) { t.on.Store(on) }

func (t *Tracer) record(s Span) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// WrapFactory times backend construction and every Feed. The wrapper
// unwraps to the real backend, so the pipeline still drains matches
// through the backend's own recycling path.
func (t *Tracer) WrapFactory(f runtime.Factory) runtime.Factory {
	return func(shard int, h *runtime.Hooks) (runtime.Backend, error) {
		t0 := now()
		b, err := f(shard, h)
		t.record(Span{Layer: spanFactory, ID: int64(shard), Start: t0, End: now()})
		if err != nil {
			return nil, err
		}
		return &tracedBackend{Backend: b, t: t, id: t.ids.Add(1)}, nil
	}
}

type tracedBackend struct {
	runtime.Backend
	t  *Tracer
	id int64
}

func (b *tracedBackend) Feed(p []byte) error {
	t0 := now()
	err := b.Backend.Feed(p)
	b.t.record(Span{Layer: spanFeed, ID: b.id, Start: t0, End: now(), N: int64(len(p))})
	return err
}

// Unwrap exposes the real backend to the pipeline's optional-interface
// lookups.
func (b *tracedBackend) Unwrap() runtime.Backend { return b.Backend }

// Core wraps the platform as the server's core, timing every Send.
func (t *Tracer) Core(p *cfgtag.Platform) serve.Core { return tracedCore{p, t} }

type tracedCore struct {
	*cfgtag.Platform
	t *Tracer
}

func (c tracedCore) Send(tenant, key string, data []byte) error {
	t0 := now()
	c.t.sent(tenant, key, len(data), t0)
	err := c.Platform.Send(tenant, key, data)
	c.t.record(Span{Layer: spanSend, Tenant: tenant, Key: key, Start: t0, End: now(), N: int64(len(data))})
	return err
}

// Deliver wraps the server's deliver callback, timing every batch.
func (t *Tracer) Deliver(next func(string, *cfgtag.TagBatch) error) func(string, *cfgtag.TagBatch) error {
	return func(tenant string, b *cfgtag.TagBatch) error {
		t0 := now()
		t.delivered(tenant, b, t0)
		err := next(tenant, b)
		t.record(Span{Layer: spanDeliver, Tenant: tenant, Key: b.Stream, Start: t0, End: now(),
			N: int64(len(b.Data)), M: int64(len(b.Tags))})
		return err
	}
}

func (t *Tracer) sent(tenant, key string, n int, at int64) {
	k := streamKey{tenant, key}
	t.mu.Lock()
	o := t.offsets[k]
	if o == nil {
		o = &streamOffsets{}
		t.offsets[k] = o
	}
	o.sent += int64(n)
	o.pend = append(o.pend, pendingChunk{o.sent, at})
	t.mu.Unlock()
}

func (t *Tracer) delivered(tenant string, b *cfgtag.TagBatch, at int64) {
	k := streamKey{tenant, b.Stream}
	on := t.on.Load()
	t.mu.Lock()
	defer t.mu.Unlock()
	o := t.offsets[k]
	if o == nil {
		return
	}
	o.delivered += int64(len(b.Data))
	i := 0
	for ; i < len(o.pend) && o.pend[i].end <= o.delivered; i++ {
		if on && len(t.spans) < maxSpans {
			t.spans = append(t.spans, Span{Layer: spanS2D, Tenant: tenant, Key: b.Stream, Start: o.pend[i].at, End: at})
		}
	}
	o.pend = o.pend[i:]
	if b.EOS {
		delete(t.offsets, k)
	}
}

// WriteSpans writes every recorded span as one tab-separated line.
func (t *Tracer) WriteSpans(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	bw := bufio.NewWriterSize(w, 1<<20)
	for _, s := range t.spans {
		fmt.Fprintf(bw, "%s\t%s\t%s\t%d\t%d\t%d\t%d\t%d\n", s.Layer, s.Tenant, s.Key, s.ID, s.Start, s.End, s.N, s.M)
	}
	if t.dropped > 0 {
		fmt.Fprintf(os.Stderr, "tracer: %d spans dropped beyond the %d-span buffer\n", t.dropped, maxSpans)
	}
	return bw.Flush()
}

// readSpans parses a WriteSpans file.
func readSpans(path string) ([]Span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var spans []Span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fs := strings.Split(sc.Text(), "\t")
		if len(fs) != 8 {
			return nil, fmt.Errorf("%s: malformed span line %q", path, sc.Text())
		}
		var n [5]int64
		for i := range n {
			if n[i], err = strconv.ParseInt(fs[3+i], 10, 64); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
		}
		spans = append(spans, Span{Layer: fs[0], Tenant: fs[1], Key: fs[2], ID: n[0], Start: n[1], End: n[2], N: n[3], M: n[4]})
	}
	return spans, sc.Err()
}

// layerRow is one line of the self-time table.
type layerRow struct {
	layer        string
	spans        int
	totalMS      float64
	selfMS       float64
	meanUS, p99U float64
}

// selfTimes builds the per-layer table. Server spans are leaves, so
// their self time is their duration. A client stream's children are the
// server spans of the same stream (its Sends and Delivers); its self
// time is its duration minus the part of it they cover — the time the
// stream spent on the wire, queued in the pipeline or in the generator.
// Send-to-deliver pairs are latencies, not a layer, and are left out.
func selfTimes(spans []Span) []layerRow {
	byLayer := map[string][]Span{}
	children := map[streamKey][][2]int64{}
	for _, s := range spans {
		if s.Layer == spanS2D {
			continue
		}
		byLayer[s.Layer] = append(byLayer[s.Layer], s)
		if s.Layer == spanSend || s.Layer == spanDeliver {
			k := streamKey{s.Tenant, s.Key}
			children[k] = append(children[k], [2]int64{s.Start, s.End})
		}
	}
	var rows []layerRow
	for layer, ss := range byLayer {
		durs := make([]float64, len(ss))
		row := layerRow{layer: layer, spans: len(ss)}
		for i, s := range ss {
			d := float64(s.End - s.Start)
			durs[i] = d
			row.totalMS += d / 1e6
			self := d
			if layer == spanStream {
				self -= float64(covered(s.Start, s.End, children[streamKey{s.Tenant, s.Key}]))
			}
			row.selfMS += self / 1e6
		}
		row.meanUS = row.totalMS * 1e3 / float64(len(ss))
		row.p99U = quantile(sorted(durs), 0.99) / 1e3
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].layer < rows[j].layer })
	return rows
}

// covered is the length of [lo, hi) covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, cur int64 = 0, lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}
