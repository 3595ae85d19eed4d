package serve_test

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"cfgtag"
	"cfgtag/internal/serve"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/metrics.golden")

// compileSeconds matches the one /metrics line whose value is wall time.
var compileSeconds = regexp.MustCompile(`(?m)^(cfgtag_aot_compile_seconds\{[^}]*\}) .*$`)

// TestMetricsGolden pins the /metrics exposition: one aot tenant and one
// dfa tenant each tag one fixed input on a single stream, and the
// rendered text must equal testdata/metrics.golden line for line, counts
// included. Only the compile duration is masked. Regenerate with
// go test ./internal/serve -run TestMetricsGolden -update.
func TestMetricsGolden(t *testing.T) {
	srv := serve.NewServer()
	cfg := &cfgtag.PlatformConfig{}
	for _, def := range []struct{ name, backend string }{{"ahead", "aot"}, {"alpha", "dfa"}} {
		cfg.Tenants = append(cfg.Tenants, cfgtag.TenantDef{
			Name:    def.name,
			Grammar: testGrammar,
			Options: []string{"free-running-start"},
			Backend: def.backend,
			Shards:  1,
		})
	}
	p, err := cfgtag.NewPlatform(cfg, srv.Deliver)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	srv.Bind(p)
	srv.SetStats(p)

	// Each message reaches an idle shard, so the queue-depth high-water
	// mark is deterministic: a shard parked on its queue takes the batch
	// straight off the send, leaving the depth at 0.
	settle := func() { time.Sleep(50 * time.Millisecond) }
	for _, tenant := range []string{"ahead", "alpha"} {
		sess, err := srv.OpenStream(tenant, "s1", nil)
		if err != nil {
			t.Fatal(err)
		}
		settle()
		if err := p.Send(tenant, "s1", []byte(testPayload)); err != nil {
			t.Fatal(err)
		}
		waitFor(t, func() bool {
			c, _, err := p.Metrics(tenant)
			return err == nil && c.Bytes == int64(len(testPayload))
		})
		settle()
		if err := p.CloseStream(tenant, "s1"); err != nil {
			t.Fatal(err)
		}
		select {
		case <-sess.Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("tenant %s: stream never ended", tenant)
		}
	}

	got := compileSeconds.ReplaceAllString(srv.MetricsText(), "$1 <masked>")
	path := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("/metrics drifted from %s:\n--- got\n%s--- want\n%s", path, got, want)
	}
}
