package harness

import (
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cfgtag"
	"cfgtag/internal/runtime"
	"cfgtag/internal/serve"
)

// ladder is the untraced in-process layer ladder: the same stream
// sequence, chunking, backend and shard count fed into each layer's
// public entry point, one rung at a time, bottom up.
type ladder struct {
	engine, runtime, pipeline, platform, serve float64 // MB/s
	matchNSPerTag                              float64
	// bad counts rungs whose tag total differed from the oracle's.
	bad int
}

// ladderStreams is the first tenant's stream sequence of the workload:
// the closed loop's order, or the open loop's arrivals of that tenant.
func ladderStreams(in *Inputs) []int {
	if in.Order != nil {
		return in.Order
	}
	var seq []int
	for _, a := range in.Arrivals {
		if in.Bodies[a.Body].Tenant == 0 {
			seq = append(seq, a.Body)
		}
	}
	return seq
}

// runLadder measures every rung on the workload's first tenant; each
// rung sends for budget once its layer is set up.
func runLadder(w Workload, engine *cfgtag.Engine, in *Inputs, budget time.Duration) (ladder, error) {
	var l ladder
	def := w.Tenants[0]
	seq := ladderStreams(in)
	// Each rung returns bytes per second, tags counted and tags expected.
	type rungFunc func() (int64, int64, int64, error)
	pipelineRung := func(open sender) rungFunc {
		return func() (int64, int64, int64, error) { return pipelineLadder(in, seq, budget, open) }
	}
	steps := []struct {
		name string
		mbps *float64
		f    rungFunc
	}{
		{"engine", &l.engine, func() (int64, int64, int64, error) {
			bps, tags, want, matchNS, err := engineLadder(def, engine, in, seq, budget)
			if tags > 0 {
				l.matchNSPerTag = matchNS / float64(tags)
			}
			return bps, tags, want, err
		}},
		{"runtime", &l.runtime, pipelineRung(runtimeSender(def, engine))},
		{"pipeline", &l.pipeline, pipelineRung(facadeSender(def, engine))},
		{"platform", &l.platform, pipelineRung(platformSender(def))},
		{"serve", &l.serve, func() (int64, int64, int64, error) { return serveLadder(w, in, seq, budget) }},
	}
	for _, s := range steps {
		bps, tags, want, err := s.f()
		if err != nil {
			return l, fmt.Errorf("ladder %s rung: %w", s.name, err)
		}
		if tags != want {
			l.bad++
			fmt.Printf("ladder %s rung: %d tags, oracle says %d\n", s.name, tags, want)
		}
		*s.mbps = float64(bps) / 1e6
	}
	return l, nil
}

// engineLadder feeds cfgtag.Backend directly, one backend per shard on
// its own goroutine, draining Matches after every Feed as the pipeline
// does. Throughput is bytes over Feed busy time per shard; the time in
// Matches is the facade's per-tag conversion.
func engineLadder(def cfgtag.TenantDef, engine *cfgtag.Engine, in *Inputs, seq []int, budget time.Duration) (bps, tags, want int64, matchNS float64, err error) {
	var next atomic.Int64
	var mu sync.Mutex
	var feedNS, bytes int64
	var wg sync.WaitGroup
	errs := make([]error, def.Shards)
	backends := make([]*cfgtag.Backend, def.Shards)
	for w := range backends {
		if backends[w], err = engine.NewBackend(cfgtag.BackendKind(def.Backend)); err != nil {
			return 0, 0, 0, 0, err
		}
	}
	deadline := time.Now().Add(budget)
	for w, be := range backends {
		wg.Add(1)
		go func(w int, be *cfgtag.Backend) {
			defer wg.Done()
			var fNS, mNS, nb, nt, nw int64
			for time.Now().Before(deadline) {
				b := &in.Bodies[seq[int(next.Add(1)-1)%len(seq)]]
				be.Reset()
				for lo := 0; lo < len(b.Data); lo += ChunkBytes {
					t0 := time.Now()
					if err := be.Feed(b.Data[lo:min(lo+ChunkBytes, len(b.Data))]); err != nil {
						errs[w] = err
						return
					}
					t1 := time.Now()
					nt += int64(len(be.Matches()))
					fNS += int64(t1.Sub(t0))
					mNS += int64(time.Since(t1))
				}
				if err := be.Close(); err != nil {
					errs[w] = err
					return
				}
				nt += int64(len(be.Matches()))
				nb += int64(len(b.Data))
				nw += int64(b.Tags)
			}
			mu.Lock()
			feedNS += fNS
			matchNS += float64(mNS)
			bytes += nb
			tags += nt
			want += nw
			mu.Unlock()
		}(w, be)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, 0, 0, 0, err
		}
	}
	busy := float64(feedNS) / float64(def.Shards) / 1e9
	return int64(float64(bytes) / busy), tags, want, matchNS, nil
}

// sender opens one pipeline-like layer: it returns the layer's Send,
// CloseStream and Close, with tag counting wired into its sink.
type sender func(tags *atomic.Int64) (send func(key string, p []byte) error, closeStream func(key string) error, close func() error, err error)

func runtimeSender(def cfgtag.TenantDef, engine *cfgtag.Engine) sender {
	return func(tags *atomic.Int64) (func(string, []byte) error, func(string) error, func() error, error) {
		var f runtime.Factory
		var err error
		switch def.Backend {
		case "aot":
			f, err = runtime.AOTFactory(engine.Spec(), 0)
		case "dfa":
			f = runtime.DFAFactory(engine.Spec(), 0)
		default:
			err = fmt.Errorf("no runtime rung for backend %q", def.Backend)
		}
		if err != nil {
			return nil, nil, nil, err
		}
		p, err := runtime.NewPipeline(runtime.Config{Shards: def.Shards, Queue: def.Queue, Factory: f},
			runtime.SinkFunc(func(b *runtime.Batch) error { tags.Add(int64(len(b.Tags))); return nil }))
		if err != nil {
			return nil, nil, nil, err
		}
		return p.Send, p.CloseStream, p.Close, nil
	}
}

func facadeSender(def cfgtag.TenantDef, engine *cfgtag.Engine) sender {
	return func(tags *atomic.Int64) (func(string, []byte) error, func(string) error, func() error, error) {
		p, err := engine.NewPipeline(cfgtag.PipelineConfig{Backend: cfgtag.BackendKind(def.Backend), Shards: def.Shards, Queue: def.Queue},
			func(b *cfgtag.TagBatch) error { tags.Add(int64(len(b.Tags))); return nil })
		if err != nil {
			return nil, nil, nil, err
		}
		return p.Send, p.CloseStream, p.Close, nil
	}
}

func platformSender(def cfgtag.TenantDef) sender {
	return func(tags *atomic.Int64) (func(string, []byte) error, func(string) error, func() error, error) {
		p, err := cfgtag.NewPlatform(&cfgtag.PlatformConfig{Tenants: []cfgtag.TenantDef{def}},
			func(_ string, b *cfgtag.TagBatch) error { tags.Add(int64(len(b.Tags))); return nil })
		if err != nil {
			return nil, nil, nil, err
		}
		send := func(key string, data []byte) error { return p.Send(def.Name, key, data) }
		closeStream := func(key string) error { return p.CloseStream(def.Name, key) }
		return send, closeStream, p.Close, nil
	}
}

// pipelineLadder sends rounds of closed-loop-width stream groups, chunks
// interleaved across the group as a mux connection would carry them,
// for budget; Close drains inside the timed region.
func pipelineLadder(in *Inputs, seq []int, budget time.Duration, open sender) (bps, tags, want int64, err error) {
	var n atomic.Int64
	send, closeStream, closeAll, err := open(&n)
	if err != nil {
		return 0, 0, 0, err
	}
	const width = bulkConns * bulkStreamsPerConn
	var bytes int64
	t0 := time.Now()
	for round, i := 0, 0; time.Since(t0) < budget; round++ {
		keys := make([]string, width)
		bodies := make([]*Body, width)
		for s := range keys {
			keys[s] = "r" + strconv.Itoa(round) + "-" + strconv.Itoa(s)
			bodies[s] = &in.Bodies[seq[i%len(seq)]]
			i++
			bytes += int64(len(bodies[s].Data))
			want += int64(bodies[s].Tags)
		}
		for lo, more := 0, true; more; lo += ChunkBytes {
			more = false
			for s, b := range bodies {
				if lo < len(b.Data) {
					if err := send(keys[s], b.Data[lo:min(lo+ChunkBytes, len(b.Data))]); err != nil {
						closeAll()
						return 0, 0, 0, err
					}
					more = true
				}
			}
		}
		for _, k := range keys {
			if err := closeStream(k); err != nil {
				closeAll()
				return 0, 0, 0, err
			}
		}
	}
	if err := closeAll(); err != nil {
		return 0, 0, 0, err
	}
	return int64(float64(bytes) / time.Since(t0).Seconds()), n.Load(), want, nil
}

// serveLadder runs the platform behind an in-process serve.Server and
// drives it with the workload's closed-loop mux client over loopback TCP.
func serveLadder(w Workload, in *Inputs, seq []int, budget time.Duration) (bps, tags, want int64, err error) {
	def := w.Tenants[0]
	srv := serve.NewServer()
	p, err := cfgtag.NewPlatform(&cfgtag.PlatformConfig{Tenants: []cfgtag.TenantDef{def}}, srv.Deliver)
	if err != nil {
		return 0, 0, 0, err
	}
	srv.Bind(p)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		p.Close()
		return 0, 0, 0, err
	}
	srv.AddInput(serve.NewTCPInput(ln, serve.TCPOptions{}))
	if err := srv.Start(); err != nil {
		p.Close()
		return 0, 0, 0, err
	}
	defer srv.Shutdown(10 * time.Second)
	cl, err := DialMux(ln.Addr().String(), 0, def.Name, in, bulkConns)
	if err != nil {
		return 0, 0, 0, err
	}
	defer cl.Close()
	var i atomic.Int64
	t0 := time.Now()
	recs := cl.Drive(bulkStreamsPerConn, true, func() (int, bool) {
		if time.Since(t0) >= budget {
			return 0, false
		}
		return seq[int(i.Add(1)-1)%len(seq)], true
	})
	elapsed := time.Since(t0)
	var bytes int64
	for _, r := range recs {
		if !r.match {
			return 0, 0, 0, fmt.Errorf("stream %s: response differs from the oracle", r.key)
		}
		// A response equal to the oracle's carries exactly its tags.
		bytes += int64(r.bytes)
		tags += int64(r.tags)
	}
	return int64(float64(bytes) / elapsed.Seconds()), tags, tags, nil
}
