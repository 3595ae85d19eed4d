package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cfgtag/internal/grammar"
	"cfgtag/internal/router"
	"cfgtag/internal/xmlrpc"
)

// lineSink is a fake back-end service: a TCP listener recording the
// newline-delimited messages the router forwards to it.
type lineSink struct {
	ln    net.Listener
	lines atomic.Int64

	mu  sync.Mutex
	got []string
}

func newLineSink(t *testing.T) *lineSink {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &lineSink{ln: ln}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				sc := bufio.NewScanner(c)
				sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
				for sc.Scan() {
					s.mu.Lock()
					s.got = append(s.got, sc.Text())
					s.mu.Unlock()
					s.lines.Add(1)
				}
			}(conn)
		}
	}()
	return s
}

func (s *lineSink) addr() string { return s.ln.Addr().String() }

// received returns the lines forwarded so far, in arrival order.
func (s *lineSink) received() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.got...)
}

func waitCond(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestListenerDrainNoByteLoss proves the SIGTERM drain path loses no
// in-flight bytes in either deployment shape: a client writes half its
// corpus, Shutdown begins mid-stream (new connections are refused), the
// client finishes, and every message still reaches the back-end server
// its content selects.
func TestListenerDrainNoByteLoss(t *testing.T) {
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			bank, shop := newLineSink(t), newLineSink(t)
			srv, addr, err := buildRouterServer("127.0.0.1:0", bank.addr(), shop.addr(), "",
				pipelineConfig{shards: shards, batchBytes: 512})
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.Start(); err != nil {
				t.Fatal(err)
			}

			const messages = 60
			gen := xmlrpc.NewGenerator(7, xmlrpc.Options{})
			corpus, services := gen.Corpus(messages)
			wantBank, wantShop := 0, 0
			for _, s := range services {
				if xmlrpc.ServiceDestination(s) == 0 {
					wantBank++
				} else {
					wantShop++
				}
			}

			client, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			half := len(corpus) / 2
			if _, err := client.Write([]byte(corpus[:half])); err != nil {
				t.Fatal(err)
			}
			waitCond(t, 5*time.Second, "stream registered", func() bool {
				return srv.ActiveSessions() == 1
			})

			// Begin the drain mid-stream, exactly as SIGTERM would.
			shutdownErr := make(chan error, 1)
			go func() { shutdownErr <- srv.Shutdown(time.Minute) }()
			waitCond(t, 5*time.Second, "draining state", func() bool {
				return srv.Draining()
			})

			// New work is refused while draining...
			late, err := net.Dial("tcp", addr)
			if err == nil {
				late.SetReadDeadline(time.Now().Add(5 * time.Second))
				buf := make([]byte, 64)
				if n, _ := late.Read(buf); n > 0 {
					t.Fatalf("refused conn got %d unexpected bytes: %q", n, buf[:n])
				}
				late.Close()
			}

			// ...but the in-flight stream finishes and loses nothing.
			if _, err := client.Write(append([]byte(corpus[half:]), '\n')); err != nil {
				t.Fatal(err)
			}
			if tc, ok := client.(*net.TCPConn); ok {
				tc.CloseWrite()
			}
			if err := <-shutdownErr; err != nil {
				t.Fatalf("Shutdown: %v", err)
			}
			if n := srv.ActiveSessions(); n != 0 {
				t.Fatalf("ActiveSessions after drain = %d, want 0", n)
			}
			waitCond(t, 5*time.Second, "sink byte counts", func() bool {
				return int(bank.lines.Load()) == wantBank && int(shop.lines.Load()) == wantShop
			})
			if srv.Refused() == 0 {
				t.Fatal("draining refusal was not counted")
			}
		})
	}
}

// routeStream writes one whole stream on a fresh connection, half-closes
// it and waits for the server to hang up (the stream's last message is
// routed by then).
func routeStream(t *testing.T, addr, stream string) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(stream)); err != nil {
		t.Fatal(err)
	}
	conn.(*net.TCPConn).CloseWrite()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatal(err)
	}
}

// TestForwardBackToBackMessages routes messages written with nothing
// between them: every forwarded line must equal its message byte for
// byte. The router hands the forwarder a window into its stream buffer,
// so appending the newline in place would overwrite the first byte of the
// next, still-unrouted message.
func TestForwardBackToBackMessages(t *testing.T) {
	gen := xmlrpc.NewGenerator(11, xmlrpc.Options{})
	var msgs []string
	var wantBank, wantShop []string
	for i := 0; i < 12; i++ {
		m, svc := gen.Message()
		msgs = append(msgs, m)
		if xmlrpc.ServiceDestination(svc) == 0 {
			wantBank = append(wantBank, m)
		} else {
			wantShop = append(wantShop, m)
		}
	}
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			bank, shop := newLineSink(t), newLineSink(t)
			srv, addr, err := buildRouterServer("127.0.0.1:0", bank.addr(), shop.addr(), "",
				pipelineConfig{shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.Start(); err != nil {
				t.Fatal(err)
			}
			routeStream(t, addr, strings.Join(msgs, ""))
			if err := srv.Shutdown(time.Minute); err != nil {
				t.Fatal(err)
			}
			waitCond(t, 5*time.Second, "forwarded lines", func() bool {
				return int(bank.lines.Load()) == len(wantBank) && int(shop.lines.Load()) == len(wantShop)
			})
			if got := bank.received(); !reflect.DeepEqual(got, wantBank) {
				t.Errorf("bank lines differ from the messages\ngot  %q\nwant %q", got, wantBank)
			}
			if got := shop.received(); !reflect.DeepEqual(got, wantShop) {
				t.Errorf("shop lines differ from the messages\ngot  %q\nwant %q", got, wantShop)
			}
		})
	}
}

// routeOracle routes corpus through an inline router on g and returns the
// lines the bank (port 0) and shop (port 1) servers receive: one per
// message, or several when a message spans newlines.
func routeOracle(t *testing.T, g *grammar.Grammar, corpus string) (bank, shop []string) {
	t.Helper()
	r, err := router.NewWithGrammar(g, "methodName", router.FigureTwelve(), 2)
	if err != nil {
		t.Fatal(err)
	}
	r.OnRoute = func(port int, _ string, message []byte) {
		lines := strings.Split(string(message), "\n")
		switch port {
		case 0:
			bank = append(bank, lines...)
		case 1:
			shop = append(shop, lines...)
		}
	}
	if _, err := r.Write([]byte(corpus)); err != nil {
		t.Fatal(err)
	}
	r.Close()
	return bank, shop
}

// TestConfigReload drives -config mode's reload glue (buildConfigServer,
// reloadTenant) on a grammar_file tenant: a connection opened before the
// reload finishes on the old grammar, one opened after it routes on the
// new grammar, and a grammar that fails to compile leaves the running
// version untouched.
func TestConfigReload(t *testing.T) {
	bank, shop := newLineSink(t), newLineSink(t)
	dir := t.TempDir()
	gfile := filepath.Join(dir, "router.y")
	if err := os.WriteFile(gfile, []byte(grammar.XMLRPCSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	free, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := free.Addr().String()
	free.Close()
	cfg := fmt.Sprintf(`{"routers": [{"name": "t", "listen": %q, "bank": %q, "shop": %q, "grammar_file": %q, "shards": 2}]}`,
		addr, bank.addr(), shop.addr(), gfile)
	cfgFile := filepath.Join(dir, "routers.json")
	if err := os.WriteFile(cfgFile, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}

	corpus, _ := xmlrpc.NewGenerator(7, xmlrpc.Options{}).Corpus(4)
	corpus += "\n"
	oldBank, oldShop := routeOracle(t, grammar.XMLRPC(), corpus)
	newBank, newShop := routeOracle(t, grammar.XMLRPCFull(), corpus)
	if reflect.DeepEqual(oldBank, newBank) && reflect.DeepEqual(oldShop, newShop) {
		t.Fatal("the two grammars route the corpus alike; the reload would be unobservable")
	}

	srv, tenants, err := buildConfigServer(cfgFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(time.Minute)
	tn := tenants[0]

	// Open the old connection and wait until its first message is routed,
	// so the stream is bound to version 1.
	old, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	cut := strings.Index(corpus, "\n") + 1
	if _, err := old.Write([]byte(corpus[:cut])); err != nil {
		t.Fatal(err)
	}
	waitCond(t, 5*time.Second, "first routed message", func() bool {
		return bank.lines.Load()+shop.lines.Load() > 0
	})

	if err := os.WriteFile(gfile, []byte(grammar.XMLRPCFullSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	reloadTenant(tn)
	if v := tn.sw.pipeline.CurrentVersion(); v != 2 {
		t.Fatalf("CurrentVersion after reload = %d, want 2", v)
	}

	// The old connection finishes on version 1, then a new one runs
	// version 2.
	if _, err := old.Write([]byte(corpus[cut:])); err != nil {
		t.Fatal(err)
	}
	old.(*net.TCPConn).CloseWrite()
	old.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.Copy(io.Discard, old); err != nil {
		t.Fatal(err)
	}
	routeStream(t, addr, corpus)

	// A grammar that does not compile is rejected; version 2 keeps running.
	if err := os.WriteFile(gfile, []byte("%%\nthis is not a grammar"), 0o644); err != nil {
		t.Fatal(err)
	}
	reloadTenant(tn)
	if v := tn.sw.pipeline.CurrentVersion(); v != 2 {
		t.Fatalf("CurrentVersion after a failed reload = %d, want 2", v)
	}
	if tn.applied != grammar.XMLRPCFullSrc {
		t.Fatal("a failed reload replaced the applied grammar source")
	}
	routeStream(t, addr, corpus)

	wantBank := append(append(append([]string(nil), oldBank...), newBank...), newBank...)
	wantShop := append(append(append([]string(nil), oldShop...), newShop...), newShop...)
	if err := srv.Shutdown(time.Minute); err != nil {
		t.Fatal(err)
	}
	// The back-end connections are closed, so the line sinks see EOF
	// after the last forwarded line; give their readers a moment.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && (int(bank.lines.Load()) < len(wantBank) || int(shop.lines.Load()) < len(wantShop)) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := bank.received(); !reflect.DeepEqual(got, wantBank) {
		t.Errorf("bank lines\ngot  %q\nwant %q", got, wantBank)
	}
	if got := shop.received(); !reflect.DeepEqual(got, wantShop) {
		t.Errorf("shop lines\ngot  %q\nwant %q", got, wantShop)
	}
}
