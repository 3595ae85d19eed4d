package runtime

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cfgtag/internal/core"
	"cfgtag/internal/grammar"
	"cfgtag/internal/stream"
	"cfgtag/internal/workload"
)

// reloadSink records, per stream, the delivered bytes, tags, EOS flag and
// the set of factory versions stamped on its batches. Safe for concurrent
// Deliver (mutexed) so tests may raise SinkWorkers.
type reloadSink struct {
	mu   sync.Mutex
	data map[string][]byte
	tags map[string][]stream.Match
	eos  map[string]bool
	vers map[string]map[int]bool
}

func newReloadSink() *reloadSink {
	return &reloadSink{
		data: make(map[string][]byte),
		tags: make(map[string][]stream.Match),
		eos:  make(map[string]bool),
		vers: make(map[string]map[int]bool),
	}
}

func (s *reloadSink) Deliver(b *Batch) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.data[b.Key] = append(s.data[b.Key], b.Data...)
	s.tags[b.Key] = append(s.tags[b.Key], b.Tags...)
	if b.EOS {
		s.eos[b.Key] = true
	}
	vs := s.vers[b.Key]
	if vs == nil {
		vs = make(map[int]bool)
		s.vers[b.Key] = vs
	}
	vs[b.Version] = true
	return nil
}

func (s *reloadSink) Close() error { return nil }

// seen reports whether any batch for key has been delivered.
func (s *reloadSink) seen(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.vers[key]) > 0
}

func TestSwapFactoryBasics(t *testing.T) {
	var retired []int
	var retMu sync.Mutex
	hooks := &Hooks{Event: func(e Event) {
		if e.Kind != EventVersionRetired {
			return
		}
		retMu.Lock()
		retired = append(retired, e.Version)
		retMu.Unlock()
	}}
	nop := SinkFunc(func(*Batch) error { return nil })
	p, err := NewPipeline(Config{Shards: 2, Factory: fakeFactory, Hooks: hooks}, nop)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.CurrentVersion(); got != 1 {
		t.Fatalf("CurrentVersion = %d, want 1", got)
	}
	if got := p.LiveVersions(); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("LiveVersions = %v, want [1]", got)
	}
	if _, err := p.Swap(nil, nop); err == nil {
		t.Fatal("Swap(nil, sink) succeeded")
	}
	if _, err := p.Swap(fakeFactory, nil); err == nil {
		t.Fatal("Swap(factory, nil) succeeded")
	}
	// No live streams: the swap retires version 1 immediately.
	v, err := p.Swap(fakeFactory, nop)
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 || p.CurrentVersion() != 2 {
		t.Fatalf("swap returned version %d (current %d), want 2", v, p.CurrentVersion())
	}
	if got := p.LiveVersions(); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("LiveVersions after idle swap = %v, want [2]", got)
	}
	retMu.Lock()
	gotRetired := append([]int(nil), retired...)
	retMu.Unlock()
	if !reflect.DeepEqual(gotRetired, []int{1}) {
		t.Fatalf("retired versions %v, want [1]", gotRetired)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Swap(fakeFactory, nop); !errors.Is(err, ErrClosed) {
		t.Fatalf("Swap after Close: %v, want ErrClosed", err)
	}
}

// TestReloadSoak is the zero-downtime proof: ≥100 live streams on the old
// grammar, a Swap to a new grammar mid-run, a second wave of
// streams on the new version — every stream must come out byte-identical
// to its serial oracle on the version it bound, with zero dropped or
// reordered batches, and the old version must retire once its last stream
// drains. Run under -race this doubles as the concurrency soak for the
// version registry and the shared DFA cache.
func TestReloadSoak(t *testing.T) {
	specA, err := core.Compile(grammar.XMLRPC(), core.Options{FreeRunningStart: true})
	if err != nil {
		t.Fatal(err)
	}
	specB, err := core.Compile(grammar.XMLRPCFull(), core.Options{FreeRunningStart: true})
	if err != nil {
		t.Fatal(err)
	}

	const oldStreams = 100
	const newStreams = 40

	genA := workload.NewGenerator(specA, 71, workload.SentenceOptions{MaxDepth: 6})
	genB := workload.NewGenerator(specB, 72, workload.SentenceOptions{MaxDepth: 6})
	oldIn := make([][]byte, oldStreams)
	for i := range oldIn {
		a, _ := genA.Sentence()
		b, _ := genA.Sentence()
		oldIn[i] = append(append([]byte(nil), a...), b...)
	}
	newIn := make([][]byte, newStreams)
	for i := range newIn {
		s, _ := genB.Sentence()
		newIn[i] = s
	}

	var retMu sync.Mutex
	retired := map[int]int{}
	hooks := &Hooks{Event: func(e Event) {
		if e.Kind != EventVersionRetired {
			return
		}
		retMu.Lock()
		retired[e.Version]++
		retMu.Unlock()
	}}
	sink := newReloadSink()
	p, err := NewPipeline(Config{Shards: 4, Factory: DFAFactory(specA, 0), Hooks: hooks}, sink)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: open every old stream with its first chunk and wait until
	// each backend exists (its first batch reached the sink), so the
	// streams genuinely bind version 1.
	half := make([]int, oldStreams)
	for i, in := range oldIn {
		half[i] = len(in) / 2
		if err := p.Send(key("old", i), in[:half[i]]); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; i < oldStreams; i++ {
		for !sink.seen(key("old", i)) {
			if time.Now().After(deadline) {
				t.Fatalf("stream %d never reached the sink", i)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Phase 2: hot-swap the grammar while every old stream is mid-flight.
	v2, err := p.Swap(DFAFactory(specB, 0), sink)
	if err != nil {
		t.Fatal(err)
	}
	if v2 != 2 {
		t.Fatalf("swap returned version %d, want 2", v2)
	}
	if got := p.LiveVersions(); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("LiveVersions mid-drain = %v, want [1 2]", got)
	}

	// Phase 3: concurrently finish the old streams on version 1 and run
	// the new wave on version 2.
	var wg sync.WaitGroup
	for i := range oldIn {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := key("old", i)
			rest := oldIn[i][half[i]:]
			for off := 0; off < len(rest); off += 97 {
				end := off + 97
				if end > len(rest) {
					end = len(rest)
				}
				if err := p.Send(k, rest[off:end]); err != nil {
					t.Error(err)
					return
				}
			}
			if err := p.CloseStream(k); err != nil {
				t.Error(err)
			}
		}(i)
	}
	for i := range newIn {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := key("new", i)
			in := newIn[i]
			for off := 0; off < len(in); off += 61 {
				end := off + 61
				if end > len(in) {
					end = len(in)
				}
				if err := p.Send(k, in[off:end]); err != nil {
					t.Error(err)
					return
				}
			}
			if err := p.CloseStream(k); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()

	// Phase 4: the old version retires as soon as its last stream's final
	// batch is delivered — before pipeline Close.
	deadline = time.Now().Add(10 * time.Second)
	for {
		if lv := p.LiveVersions(); reflect.DeepEqual(lv, []int{2}) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("old version never retired: LiveVersions = %v", p.LiveVersions())
		}
		time.Sleep(time.Millisecond)
	}
	retMu.Lock()
	if retired[1] != 1 {
		t.Errorf("version 1 retired %d times, want exactly 1", retired[1])
	}
	retMu.Unlock()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// Every stream: bytes intact and in order, exactly one version, tags
	// byte-identical to the serial oracle of the version it bound.
	oracleA := stream.NewTagger(specA)
	oracleB := stream.NewTagger(specB)
	check := func(k string, in []byte, wantVer int, oracleTags []stream.Match) {
		t.Helper()
		if !sink.eos[k] {
			t.Fatalf("%s: no EOS delivered", k)
		}
		if !reflect.DeepEqual(sink.data[k], in) {
			t.Fatalf("%s: delivered bytes differ from input (%d vs %d bytes)", k, len(sink.data[k]), len(in))
		}
		if len(sink.vers[k]) != 1 || !sink.vers[k][wantVer] {
			t.Fatalf("%s: batch versions %v, want exactly {%d}", k, sink.vers[k], wantVer)
		}
		got := sink.tags[k]
		if len(got) == 0 {
			got = nil
		}
		if !reflect.DeepEqual(got, oracleTags) {
			t.Fatalf("%s: tags differ from serial oracle\ngot  %v\nwant %v", k, got, oracleTags)
		}
	}
	for i, in := range oldIn {
		check(key("old", i), in, 1, oracleA.Tag(in))
	}
	for i, in := range newIn {
		check(key("new", i), in, 2, oracleB.Tag(in))
	}
}

func key(prefix string, i int) string { return fmt.Sprintf("%s-%d", prefix, i) }

func TestConfigValidate(t *testing.T) {
	base := func() Config { return Config{Factory: fakeFactory} }
	cases := []struct {
		name  string
		mut   func(*Config)
		field string
	}{
		{"nil factory", func(c *Config) { c.Factory = nil }, "Factory"},
		{"negative shards", func(c *Config) { c.Shards = -1 }, "Shards"},
		{"negative queue", func(c *Config) { c.Queue = -2 }, "Queue"},
		{"negative max streams", func(c *Config) { c.MaxStreams = -1 }, "MaxStreams"},
		{"negative batch idle", func(c *Config) { c.BatchIdle = -time.Second }, "BatchIdle"},
		{"negative sink workers", func(c *Config) { c.SinkWorkers = -3 }, "SinkWorkers"},
		{"negative sink attempts", func(c *Config) { c.SinkAttempts = -1 }, "SinkAttempts"},
		{"negative sink backoff", func(c *Config) { c.SinkBackoff = -time.Millisecond }, "SinkBackoff"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mut(&cfg)
			err := cfg.Validate()
			if !errors.Is(err, ErrInvalidConfig) {
				t.Fatalf("Validate = %v, want ErrInvalidConfig", err)
			}
			var ce *ConfigError
			if !errors.As(err, &ce) || ce.Field != tc.field {
				t.Fatalf("Validate = %v, want ConfigError on %s", err, tc.field)
			}
			if _, err := NewPipeline(cfg, SinkFunc(func(*Batch) error { return nil })); !errors.Is(err, ErrInvalidConfig) {
				t.Fatalf("NewPipeline = %v, want ErrInvalidConfig", err)
			}
		})
	}
	// The documented negative switches stay legal.
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"negative batch bytes disables coalescing", func(c *Config) { c.BatchBytes = -1 }},
		{"negative quarantine disables quarantining", func(c *Config) { c.Quarantine = -1 }},
		{"all zero defaults", func(c *Config) {}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mut(&cfg)
			if err := cfg.Validate(); err != nil {
				t.Fatalf("Validate = %v, want nil", err)
			}
		})
	}
}

// TestSharedCacheAcrossPipelineStreams asserts the shared DFA cache
// amortizes determinization at the pipeline level: the summed CacheStats
// misses of N streams equal what a single stream pays, so fills are O(1)
// in stream count.
func TestSharedCacheAcrossPipelineStreams(t *testing.T) {
	spec, err := core.Compile(grammar.XMLRPC(), core.Options{FreeRunningStart: true})
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(spec, 83, workload.SentenceOptions{MaxDepth: 6})
	text, _ := gen.Sentence()

	run := func(streams int) (misses int64) {
		var mc MetricCounters
		p, err := NewPipeline(Config{Shards: 2, Factory: DFAFactory(spec, 0), Hooks: &Hooks{Metrics: &mc}},
			SinkFunc(func(*Batch) error { return nil }))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < streams; i++ {
			if err := p.Send(key("s", i), text); err != nil {
				t.Fatal(err)
			}
			if err := p.CloseStream(key("s", i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		c, _ := mc.Snapshot()
		if c.CacheHits+c.CacheMisses != int64(streams)*int64(len(text)) {
			t.Fatalf("%d streams: hits+misses = %d, want %d",
				streams, c.CacheHits+c.CacheMisses, int64(streams)*int64(len(text)))
		}
		return c.CacheMisses
	}

	solo := run(1)
	if solo == 0 {
		t.Fatal("single stream recorded no cache fills; input too trivial")
	}
	fleet := run(64)
	if fleet != solo {
		t.Errorf("64 streams filled %d transitions, 1 stream fills %d (want equal: O(1) in stream count)",
			fleet, solo)
	}
}

// versionSink is one factory version's sink in TestSwapSinkPerVersion. It
// records the streams it served and every breach of the per-version sink
// contract. With gate set, Deliver of the gated key's error batch first
// signals entered and then waits for gate to close.
type versionSink struct {
	id      int
	gateKey string
	gate    chan struct{}
	entered chan struct{}

	mu       sync.Mutex
	keys     map[string]bool
	batches  int
	closes   int
	late     int   // Deliver calls after Close
	wrongVer []int // b.Version values other than id
}

func newVersionSink(id int) *versionSink {
	return &versionSink{id: id, keys: make(map[string]bool)}
}

func (s *versionSink) Deliver(b *Batch) error {
	if s.gate != nil && b.Key == s.gateKey && b.Err != nil {
		s.entered <- struct{}{}
		<-s.gate
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closes > 0 {
		s.late++
	}
	if b.Version != s.id {
		s.wrongVer = append(s.wrongVer, b.Version)
	}
	s.keys[b.Key] = true
	s.batches++
	return nil
}

func (s *versionSink) Close() error {
	s.mu.Lock()
	s.closes++
	s.mu.Unlock()
	return nil
}

func (s *versionSink) closeCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closes
}

// TestSwapSinkPerVersion pins the per-version sink contract: while streams
// start concurrently with several Swaps, every batch lands in the sink
// published with the version that tagged it, a stream's batches never
// span two sinks, and each version's sink is closed exactly once with no
// Deliver after it — for retired versions, for the version still current
// at Close, and for a version whose factory-error batch was still in
// flight when it was superseded.
func TestSwapSinkPerVersion(t *testing.T) {
	var calls atomic.Int64
	// Every seventh backend fails to build, spreading factory-error EOS
	// batches across the versions.
	flaky := func(shard int, h *Hooks) (Backend, error) {
		if calls.Add(1)%7 == 0 {
			return nil, errors.New("factory down")
		}
		return fakeFactory(shard, h)
	}
	sinks := []*versionSink{newVersionSink(1)}
	p, err := NewPipeline(Config{Shards: 4, SinkWorkers: 2, Factory: flaky, BatchBytes: 256}, sinks[0])
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					if i > 0 {
						return
					}
				default:
				}
				k := fmt.Sprintf("w%d-s%d", w, i)
				for c := 0; c < 3; c++ {
					if err := p.Send(k, []byte("chunk of a stream ")); err != nil && !errors.Is(err, ErrQuarantined) {
						t.Error(err)
						return
					}
				}
				if err := p.CloseStream(k); err != nil && !errors.Is(err, ErrQuarantined) {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 6; i++ {
		time.Sleep(2 * time.Millisecond)
		s := newVersionSink(len(sinks) + 1)
		v, err := p.Swap(flaky, s)
		if err != nil {
			t.Fatal(err)
		}
		if v != s.id {
			t.Fatalf("Swap returned version %d, want %d", v, s.id)
		}
		sinks = append(sinks, s)
	}
	close(done)
	wg.Wait()

	// A factory-error batch holds its version until it is delivered: the
	// version superseded while that batch is still in Deliver must not be
	// closed before the batch is out.
	failing := newVersionSink(len(sinks) + 1)
	failing.gateKey = "doomed"
	failing.gate = make(chan struct{})
	failing.entered = make(chan struct{}, 1)
	if _, err := p.Swap(func(int, *Hooks) (Backend, error) { return nil, errors.New("factory down") }, failing); err != nil {
		t.Fatal(err)
	}
	sinks = append(sinks, failing)
	if err := p.Send("doomed", []byte("x")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-failing.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("factory-error batch never reached its sink")
	}
	last := newVersionSink(len(sinks) + 1)
	if _, err := p.Swap(fakeFactory, last); err != nil {
		t.Fatal(err)
	}
	sinks = append(sinks, last)
	if n := failing.closeCount(); n != 0 {
		t.Errorf("superseded version %d closed %d times while its factory-error batch was in flight", failing.id, n)
	}
	close(failing.gate)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	owner := make(map[string]int)
	served := 0
	for _, s := range sinks {
		if s.closes != 1 {
			t.Errorf("version %d sink closed %d times, want 1", s.id, s.closes)
		}
		if s.late != 0 {
			t.Errorf("version %d sink got %d Deliver calls after Close", s.id, s.late)
		}
		if len(s.wrongVer) != 0 {
			t.Errorf("version %d sink got batches stamped %v", s.id, s.wrongVer)
		}
		for k := range s.keys {
			if prev, ok := owner[k]; ok {
				t.Errorf("stream %s delivered to versions %d and %d", k, prev, s.id)
			}
			owner[k] = s.id
		}
		if s.batches > 0 && s.id > 1 {
			served++
		}
	}
	if served < 2 {
		t.Fatalf("only %d swapped-in versions received batches; the swaps did not overlap live traffic", served)
	}
	if !failing.keys["doomed"] {
		t.Fatal("factory-error batch was not delivered to its version's sink")
	}
}
