package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"cfgtag"
)

// Options configure one benchmark run.
type Options struct {
	Workload string
	Seed     int64
	Seconds  int
	// Trace selects the per-layer run: an untraced and a traced server
	// run of the workload plus the in-process ladder, each taking a share
	// of Seconds. Otherwise the run measures the end-to-end metrics.
	Trace bool
	Rate  float64 // churn-mixed arrivals per second
	SUT   string  // server-under-test binary
	Out   string  // directory for span files
}

// setupLaunches is how many times a run launches the server to take the
// median set-up time; the last launch serves the workload.
const setupLaunches = 7

// subWindow is the period of the server CPU samples that split the
// measured window; throughput and CPU per MB are medians over them.
const subWindow = 500 * time.Millisecond

// ungated end-to-end figures are printed but left out of the result
// line: failures and mismatches travel in its failed and correct fields;
// the latency figures move with host scheduling noise, and peak RSS with
// the number of streams a run completes (mux connections retain every
// closed session), by more than any bound BENCHMARK.json may set.
// --trace 1 reports them as gen.* and server.peak_rss_mb.
var ungated = []string{"failed_frac", "mismatch_streams", "latency_p50_ms", "latency_p99_ms", "within_slo_frac", "peak_rss_mb"}

type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// Run executes one benchmark run and writes its report, ending with the
// result line, to out.
func Run(o Options, out io.Writer) error {
	w, err := Lookup(o.Workload)
	if err != nil {
		return err
	}
	if o.Seconds < 1 {
		return fmt.Errorf("seconds must be at least 1")
	}
	window := time.Duration(o.Seconds) * time.Second
	if o.Trace {
		window = window * 3 / 10
	}
	engines, err := Compile(w)
	if err != nil {
		return err
	}
	in, err := Generate(w, engines, o.Seed, window, o.Rate)
	if err != nil {
		return err
	}
	var total int
	for _, b := range in.Bodies {
		total += len(b.Data)
	}
	fmt.Fprintf(out, "perfbench workload=%s seed=%d seconds=%d trace=%v\n", w.Name, o.Seed, o.Seconds, o.Trace)
	fmt.Fprintf(out, "input digest %s (%d bodies, %d body bytes, %d order entries, %d arrivals, %d reloads)\n",
		in.Digest, len(in.Bodies), total, len(in.Order), len(in.Arrivals), len(in.Reloads))
	var res *result
	if o.Trace {
		res, err = runLayers(o, w, engines, in, window, out)
	} else {
		res, err = runEndToEnd(o, w, in, window, out)
	}
	if err != nil {
		return err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

// runEndToEnd measures set-up over several launches, then the workload on
// the last launch with tracing off.
func runEndToEnd(o Options, w Workload, in *Inputs, window time.Duration, out io.Writer) (*result, error) {
	var setups []float64
	var s *SUT
	for i := 0; i < setupLaunches; i++ {
		sut, d, err := LaunchSUT(o.SUT, w.Name, "")
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if i == setupLaunches-1 {
			s = sut
		} else if _, err := sut.Stop(); err != nil {
			return nil, err
		}
	}
	lr, err := drive(s, w, in, window, false)
	if err != nil {
		s.kill()
		return nil, err
	}
	ru, err := s.Stop()
	if err != nil {
		return nil, err
	}
	ms, res := lr.endToEnd(w)
	ms = append(ms,
		metric{"setup_s", quantile(sorted(setups), 0.5), "s", fmt.Sprintf("median of %d launches %s", len(setups), fmtList(setups, 4))},
		metric{"peak_rss_mb", peakRSSMB(ru), "MB", "server maximum resident set"},
	)
	printMetrics(out, ms)
	res.Metrics = jsonMetrics(ms, ungated...)
	return res, nil
}

// loadRun is one measured drive of the server.
type loadRun struct {
	recs      []*streamRec  // the measured streams
	elapsed   time.Duration // first byte of a measured stream to the last final line
	inBytes   int64         // payload bytes of the measured streams
	rx, rxIn  int64         // response bytes read, and payload bytes sent meanwhile
	writeFrac float64       // share of connection time spent inside write
	late      []float64     // open loop: send lateness, ms
	reloads   []float64     // reload call times, ms
	cpu       []cpuSample   // server CPU through the window
	u0, u1    Usage
	m0, m1    map[string]float64
}

// drive runs the workload's warmup and measured window against s, with
// spans recorded only in the measured window when traced.
func drive(s *SUT, w Workload, in *Inputs, window time.Duration, traced bool) (*loadRun, error) {
	// The generator collects rarely, so its GC steals less of the two
	// cores it shares with the server.
	defer debug.SetGCPercent(debug.SetGCPercent(800))
	lr := &loadRun{}
	mark := func(u *Usage, m *map[string]float64, trace bool) error {
		var err error
		if *u, err = s.Usage(); err != nil {
			return err
		}
		if *m, err = s.Scrape(); err != nil {
			return err
		}
		if traced {
			return s.Trace(trace)
		}
		return nil
	}
	if !w.Open {
		cl, err := DialMux(s.TCP, 0, w.Tenants[0].Name, in, bulkConns)
		if err != nil {
			return nil, err
		}
		defer cl.Close()
		var n int64
		var mu sync.Mutex
		until := func(d time.Duration) func() (int, bool) {
			deadline := time.Now().Add(d)
			return func() (int, bool) {
				mu.Lock()
				defer mu.Unlock()
				if time.Now().After(deadline) {
					return 0, false
				}
				n++
				return in.Order[int(n-1)%len(in.Order)], true
			}
		}
		cl.Drive(bulkStreamsPerConn, false, until(w.Warmup))
		if err := mark(&lr.u0, &lr.m0, true); err != nil {
			return nil, err
		}
		w0, rx0 := cl.stats()
		stop := make(chan struct{})
		samples := sampleCPU(s, subWindow, stop)
		t0 := time.Now()
		lr.recs = cl.Drive(bulkStreamsPerConn, true, until(window))
		lr.elapsed = time.Since(t0)
		close(stop)
		lr.cpu = <-samples
		w1, rx1 := cl.stats()
		if err := mark(&lr.u1, &lr.m1, false); err != nil {
			return nil, err
		}
		for _, r := range lr.recs {
			lr.inBytes += int64(r.bytes)
		}
		lr.rx, lr.rxIn = rx1-rx0, lr.inBytes
		lr.writeFrac = float64(w1-w0) / float64(lr.elapsed) / bulkConns
		return lr, nil
	}

	names := make([]string, len(w.Tenants))
	for i, t := range w.Tenants {
		names[i] = t.Name
	}
	ol, err := DialOpen(s.HTTP, names, in, churnConns)
	if err != nil {
		return nil, err
	}
	defer ol.Close()
	start := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	stop := make(chan struct{})
	var samples <-chan []cpuSample
	wg.Add(2)
	go func() {
		defer wg.Done()
		time.Sleep(time.Until(start.Add(in.Measured[0])))
		errs[0] = mark(&lr.u0, &lr.m0, true)
		samples = sampleCPU(s, subWindow, stop)
	}()
	go func() {
		defer wg.Done()
		for _, at := range in.Reloads {
			time.Sleep(time.Until(start.Add(at)))
			d, err := s.Reload(w.Tenants[0].Name)
			if err != nil {
				errs[1] = err
				return
			}
			lr.reloads = append(lr.reloads, float64(d)/1e6)
		}
	}()
	all := ol.Run(start)
	wg.Wait()
	close(stop)
	lr.cpu = <-samples
	if err := mark(&lr.u1, &lr.m1, false); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	first, last := int64(math.MaxInt64), int64(0)
	for _, r := range all {
		lr.rxIn += int64(r.bytes)
		if !r.measured {
			continue
		}
		lr.recs = append(lr.recs, r)
		lr.inBytes += int64(r.bytes)
		lr.late = append(lr.late, float64(r.sent-r.start)/1e6)
		first, last = min(first, r.start), max(last, r.done)
	}
	lr.elapsed = time.Duration(last - first)
	wNS, rx := ol.stats()
	lr.rx = rx
	lr.writeFrac = float64(wNS) / float64(time.Since(start)) / churnConns
	return lr, nil
}

// endToEnd computes the run's user-visible metrics and its result line.
func (lr *loadRun) endToEnd(w Workload) ([]metric, *result) {
	res := &result{Correct: true, Attempted: len(lr.recs)}
	var lat []float64
	within, mismatch := 0, 0
	for _, r := range lr.recs {
		switch {
		case !r.ok:
			res.Failed++
		case !r.match:
			mismatch++
		default:
			if r.latency() <= w.SLO {
				within++
			}
		}
		if r.ok {
			lat = append(lat, float64(r.latency())/1e6)
		}
	}
	res.Correct = mismatch == 0
	p99s := groupTails(lr.recs)
	lat = sorted(lat)
	p99, used, beyond := Tail(lat, 0.99)
	origin := "CLOSE sent"
	if w.Open {
		origin = "due time"
	}
	mb := float64(lr.inBytes) / 1e6
	attempted := float64(max(1, res.Attempted))
	thr, cpu := lr.subWindows()
	return []metric{
		{"throughput_mbps", quantile(sorted(thr), 0.5), "MB/s", fmt.Sprintf("median of %d sub-windows %s; whole window %.1f MB in %.3f s",
			len(thr), fmtList(thr, 4), mb, lr.elapsed.Seconds())},
		{"cpu_ms_per_mb", quantile(sorted(cpu), 0.5), "ms/MB", fmt.Sprintf("server user+system CPU, median of %s; whole window %.4g",
			fmtList(cpu, 4), float64(lr.u1.CPUNS-lr.u0.CPUNS)/1e6/mb)},
		{"latency_p50_ms", quantile(lat, 0.5), "ms", fmt.Sprintf("from %s to final line, n=%d", origin, len(lat))},
		{"latency_p99_ms", quantile(sorted(p99s), 0.5), "ms", fmt.Sprintf("median of %d group tails %s; whole window p%.4g=%.4g, n=%d, %d beyond",
			len(p99s), fmtList(p99s, 4), used*100, p99, len(lat), beyond)},
		{"within_slo_frac", float64(within) / attempted, "frac", fmt.Sprintf("correct within %v", w.SLO)},
		{"failed_frac", float64(res.Failed) / attempted, "frac", fmt.Sprintf("%d of %d streams", res.Failed, res.Attempted)},
		{"mismatch_streams", float64(mismatch), "count", "responses differing from the serial oracle"},
	}, res
}

// groupTails splits the answered streams, in latency-origin order, into
// up to maxGroups groups of at least minGroup, and returns each group's
// p99 by the Tail rule. Their median is the reported tail: one stalled
// second of a noisy host moves one group, not the whole run.
func groupTails(recs []*streamRec) []float64 {
	const maxGroups, minGroup = 60, 1000
	var ok []*streamRec
	for _, r := range recs {
		if r.ok {
			ok = append(ok, r)
		}
	}
	sort.Slice(ok, func(i, j int) bool { return ok[i].offered < ok[j].offered })
	groups := max(1, min(maxGroups, len(ok)/minGroup))
	var tails []float64
	for g := 0; g < groups; g++ {
		part := ok[g*len(ok)/groups : (g+1)*len(ok)/groups]
		lat := make([]float64, len(part))
		for i, r := range part {
			lat[i] = float64(r.latency()) / 1e6
		}
		v, _, _ := Tail(sorted(lat), 0.99)
		tails = append(tails, v)
	}
	return tails
}

// subWindows splits the measured window at the server CPU samples and
// returns each sub-window's completed payload MB/s and server CPU ms per
// completed MB. A stream counts in the sub-window its final line arrived in.
func (lr *loadRun) subWindows() (thr, cpu []float64) {
	cs := lr.cpu
	for i := 1; i < len(cs); i++ {
		var bytes int64
		for _, r := range lr.recs {
			if r.ok && r.done > cs[i-1].at && r.done <= cs[i].at {
				bytes += int64(r.bytes)
			}
		}
		if bytes == 0 {
			continue
		}
		mb := float64(bytes) / 1e6
		thr = append(thr, mb/(float64(cs[i].at-cs[i-1].at)/1e9))
		cpu = append(cpu, float64(cs[i].cpuNS-cs[i-1].cpuNS)/1e6/mb)
	}
	return thr, cpu
}

// cpuSample is the server's CPU time at one instant.
type cpuSample struct{ at, cpuNS int64 }

// sampleCPU samples the server's CPU every period until stop closes, and
// once more then; the samples arrive on the returned channel.
func sampleCPU(s *SUT, period time.Duration, stop <-chan struct{}) <-chan []cpuSample {
	out := make(chan []cpuSample, 1)
	go func() {
		var cs []cpuSample
		take := func() {
			if u, err := s.Usage(); err == nil {
				cs = append(cs, cpuSample{now(), u.CPUNS})
			}
		}
		take()
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				take()
			case <-stop:
				take()
				out <- cs
				return
			}
		}
	}()
	return out
}

// runLayers measures the per-layer metrics: the workload untraced, then
// traced on a fresh server, then the in-process ladder.
func runLayers(o Options, w Workload, engines []*cfgtag.Engine, in *Inputs, window time.Duration, out io.Writer) (*result, error) {
	s, _, err := LaunchSUT(o.SUT, w.Name, "")
	if err != nil {
		return nil, err
	}
	plain, err := drive(s, w, in, window, false)
	if err != nil {
		s.kill()
		return nil, err
	}
	ru, err := s.Stop()
	if err != nil {
		return nil, err
	}

	if err := os.MkdirAll(o.Out, 0o755); err != nil {
		return nil, err
	}
	spanFile := filepath.Join(o.Out, fmt.Sprintf("spans-%s-%d.tsv", w.Name, o.Seed))
	s, _, err = LaunchSUT(o.SUT, w.Name, spanFile)
	if err != nil {
		return nil, err
	}
	traced, err := drive(s, w, in, window, true)
	if err == nil && !w.Open {
		// The closed loop reloads nothing; time one reload after it.
		var d time.Duration
		if d, err = s.Reload(w.Tenants[0].Name); err == nil {
			traced.reloads = append(traced.reloads, float64(d)/1e6)
		}
	}
	if err != nil {
		s.kill()
		return nil, err
	}
	if _, err := s.Stop(); err != nil {
		return nil, err
	}
	spans, err := readSpans(spanFile)
	if err != nil {
		return nil, err
	}
	for _, r := range traced.recs {
		if r.done > 0 {
			spans = append(spans, Span{Layer: spanStream, Tenant: w.Tenants[r.tenant].Name, Key: r.key, Start: r.start, End: r.done})
		}
	}

	lad, err := runLadder(w, engines[0], in, time.Duration(o.Seconds)*time.Second*8/100)
	if err != nil {
		return nil, err
	}
	compileMS, err := compileTime(w)
	if err != nil {
		return nil, err
	}

	plainE2E, res := plain.endToEnd(w)
	tracedE2E, resT := traced.endToEnd(w)
	res.Attempted += resT.Attempted
	res.Failed += resT.Failed
	res.Correct = res.Correct && resT.Correct && lad.bad == 0
	fmt.Fprintf(out, "untraced run: %s\n", summary(plainE2E))
	fmt.Fprintf(out, "traced run:   %s\n", summary(tracedE2E))

	ms := layerMetrics(w, plain, traced, spans, plainE2E[1].value, tracedE2E[1].value)
	// The ungated end-to-end figures of the untraced run.
	for _, m := range plainE2E[2:5] {
		m.name = "gen." + m.name
		ms = append(ms, m)
	}
	ms = append(ms,
		metric{"server.peak_rss_mb", peakRSSMB(ru), "MB", "untraced server maximum resident set"},
		metric{"setup.compile_ms", compileMS, "ms", "cfgtag.Compile of every tenant grammar, median of 5"},
		metric{"facade.match_ns_per_tag", lad.matchNSPerTag, "ns", "time in cfgtag.Backend.Matches per tag (ladder engine rung)"},
		metric{"ladder.engine_mbps", lad.engine, "MB/s", "cfgtag.Backend.Feed, bytes per Feed-busy second per shard"},
		metric{"ladder.runtime_mbps", lad.runtime, "MB/s", "internal/runtime pipeline, no conversion"},
		metric{"ladder.pipeline_mbps", lad.pipeline, "MB/s", "cfgtag.Pipeline"},
		metric{"ladder.platform_mbps", lad.platform, "MB/s", "cfgtag.Platform"},
		metric{"ladder.serve_mbps", lad.serve, "MB/s", "in-process serve.Server, loopback TCP mux"},
		metric{"ladder.pipeline_over_runtime", ratio(lad.pipeline, lad.runtime), "ratio", ""},
		metric{"ladder.platform_over_pipeline", ratio(lad.platform, lad.pipeline), "ratio", ""},
		metric{"ladder.serve_over_platform", ratio(lad.serve, lad.platform), "ratio", ""},
	)
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	printMetrics(out, ms)
	printSelfTimes(out, selfTimes(spans), traced.elapsed)
	fmt.Fprintf(out, "spans written to %s\n", spanFile)
	res.Metrics = jsonMetrics(ms)
	return res, nil
}

// layerMetrics derives the per-layer numbers from both server runs: the
// traced run's spans and /metrics, and the untraced run's process
// accounting and client counters.
func layerMetrics(w Workload, plain, traced *loadRun, spans []Span, cpuPlain, cpuTraced float64) []metric {
	var send, s2d []float64
	var slow, batches, batchTags, batchBytes, feedBytes, factories int64
	var deliverNS, feedNS, factoryNS float64
	for _, s := range spans {
		d := float64(s.End - s.Start)
		switch s.Layer {
		case spanSend:
			send = append(send, d/1e3)
			if s.End-s.Start > slowSendNano {
				slow++
			}
		case spanS2D:
			s2d = append(s2d, d/1e6)
		case spanDeliver:
			batches++
			batchTags += s.M
			batchBytes += s.N
			deliverNS += d
		case spanFeed:
			feedBytes += s.N
			feedNS += d
		case spanFactory:
			factories++
			factoryNS += d
		}
	}
	send, s2d = sorted(send), sorted(s2d)
	sendP99, _, _ := Tail(send, 0.99)
	s2dP99, _, _ := Tail(s2d, 0.99)

	sum := func(m map[string]float64, name string) float64 {
		var v float64
		for k, x := range m {
			if strings.HasPrefix(k, name+"{") {
				v += x
			}
		}
		return v
	}
	delta := func(lr *loadRun, name string) float64 { return sum(lr.m1, name) - sum(lr.m0, name) }
	rpc := fmt.Sprintf("{tenant=%q}", w.Tenants[0].Name)
	maxQueue := 0.0
	for k, v := range traced.m1 {
		if strings.HasPrefix(k, "cfgtag_queue_depth_max{") {
			maxQueue = math.Max(maxQueue, v)
		}
	}
	hitRatio := 0.0
	for _, t := range w.Tenants {
		if t.Backend == "dfa" {
			lbl := fmt.Sprintf("{tenant=%q}", t.Name)
			hits := traced.m1["cfgtag_cache_hits_total"+lbl] - traced.m0["cfgtag_cache_hits_total"+lbl]
			misses := traced.m1["cfgtag_cache_misses_total"+lbl] - traced.m0["cfgtag_cache_misses_total"+lbl]
			hitRatio = ratio(hits, hits+misses)
		}
	}
	late := 0.0
	if plain.late != nil {
		late, _, _ = Tail(sorted(plain.late), 0.99)
	}
	elapsed := float64(traced.elapsed)
	return []metric{
		{"setup.aot_compile_ms", traced.m1["cfgtag_aot_compile_seconds"+rpc] * 1e3, "ms", "Platform.CompileStats via /metrics"},
		{"setup.aot_states", traced.m1["cfgtag_aot_states"+rpc], "count", ""},
		{"setup.aot_table_kb", traced.m1["cfgtag_aot_table_bytes"+rpc] / 1024, "KiB", ""},
		{"engine.feed_ns_per_kb", ratio(feedNS, float64(feedBytes)/1024), "ns/KiB", "self time of the wrapped Backend.Feed"},
		{"engine.tags_per_kb", ratio(delta(traced, "cfgtag_matches_total"), delta(traced, "cfgtag_bytes_total")/1024), "1/KiB", ""},
		{"engine.factory_us", ratio(factoryNS/1e3, float64(factories)), "us", "mean backend construction"},
		{"engine.factory_calls", float64(factories), "count", "in the traced window"},
		{"engine.dfa_hit_ratio", hitRatio, "frac", naIf(hitRatio == 0, "dfa cache hits / (hits + misses)")},
		{"pipeline.send_us_p50", quantile(send, 0.5), "us", fmt.Sprintf("time in Platform.Send, n=%d", len(send))},
		{"pipeline.send_us_p99", sendP99, "us", ""},
		{"pipeline.send_block_frac", ratio(float64(slow), float64(len(send))), "frac", "Sends over 100us"},
		{"pipeline.send_to_deliver_ms_p50", quantile(s2d, 0.5), "ms", fmt.Sprintf("n=%d", len(s2d))},
		{"pipeline.send_to_deliver_ms_p99", s2dP99, "ms", ""},
		{"pipeline.batches_per_mb", ratio(float64(batches), float64(batchBytes)/1e6), "1/MB", ""},
		{"pipeline.tags_per_batch", ratio(float64(batchTags), float64(batches)), "count", ""},
		{"pipeline.deliver_busy_frac", ratio(deliverNS, elapsed), "frac", "time in Server.Deliver over the window"},
		{"pipeline.max_queue", maxQueue, "count", "queue depth high-water, batches"},
		{"platform.reload_ms", quantile(sorted(traced.reloads), 0.5), "ms", fmt.Sprintf("median of %d Platform.Reload calls", len(traced.reloads))},
		{"platform.alloc_bytes_per_tag", ratio(float64(plain.u1.AllocBytes-plain.u0.AllocBytes), delta(plain, "cfgtag_matches_total")), "B", "server heap allocation per tag"},
		{"platform.gc_cpu_frac", ratio(plain.u1.GCCPU-plain.u0.GCCPU, plain.u1.TotalCPU-plain.u0.TotalCPU), "frac", "runtime/metrics GC CPU share"},
		{"serve.deliver_us_per_batch", ratio(deliverNS/1e3, float64(batches)), "us", ""},
		{"serve.out_bytes_per_in_byte", ratio(float64(plain.rx), float64(plain.rxIn)), "ratio", "response bytes read per payload byte"},
		{"serve.client_write_block_frac", plain.writeFrac, "frac", "connection time spent inside write"},
		{"serve.refused", plain.m1["serve_refused_total"], "count", ""},
		{"serve.slow_consumers", plain.m1["serve_slow_consumers_total"], "count", ""},
		{"gen.late_ms_p99", late, "ms", naIf(!w.Open, "open-loop send lateness")},
		{"trace.overhead_frac", cpuTraced/cpuPlain - 1, "frac", "traced over untraced cpu_ms_per_mb"},
	}
}

// peakRSSMB converts getrusage's maximum RSS (KiB on Linux) to MB.
func peakRSSMB(ru *syscall.Rusage) float64 { return float64(ru.Maxrss) * 1024 / 1e6 }

func naIf(na bool, note string) string {
	if na {
		return "n/a on this workload, reported as 0"
	}
	return note
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// compileTime is the median over five rounds of compiling every tenant's
// grammar with cfgtag.Compile.
func compileTime(w Workload) (float64, error) {
	var ts []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if _, err := Compile(w); err != nil {
			return 0, err
		}
		ts = append(ts, float64(time.Since(t0))/1e6)
	}
	return quantile(sorted(ts), 0.5), nil
}

func printMetrics(out io.Writer, ms []metric) {
	for _, m := range ms {
		fmt.Fprintf(out, "  %-34s %14.6g %-7s %s\n", m.name, m.value, m.unit, m.note)
	}
}

func printSelfTimes(out io.Writer, rows []layerRow, window time.Duration) {
	fmt.Fprintf(out, "self time per layer, traced window %.3f s:\n", window.Seconds())
	fmt.Fprintf(out, "  %-18s %9s %12s %12s %10s %10s\n", "layer", "spans", "total_ms", "self_ms", "mean_us", "p99_us")
	for _, r := range rows {
		fmt.Fprintf(out, "  %-18s %9d %12.3f %12.3f %10.3f %10.3f\n", r.layer, r.spans, r.totalMS, r.selfMS, r.meanUS, r.p99U)
	}
}

func summary(ms []metric) string {
	parts := make([]string, len(ms))
	for i, m := range ms {
		parts[i] = fmt.Sprintf("%s=%.4g", m.name, m.value)
	}
	return strings.Join(parts, " ")
}

func fmtList(xs []float64, prec int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.*g", prec, x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// jsonMetrics renders metrics for the result line, leaving out the named
// ones (they are carried by its correct and failed fields instead).
// Non-finite values become 0.
func jsonMetrics(ms []metric, omit ...string) map[string]metricValue {
	out := make(map[string]metricValue, len(ms))
next:
	for _, m := range ms {
		for _, o := range omit {
			if m.name == o {
				continue next
			}
		}
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return out
}
