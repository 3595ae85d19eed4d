package harness

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"cfgtag"
	"cfgtag/internal/serve"
)

// The harness reads grammar files relative to the module root.
func TestMain(m *testing.M) {
	if err := os.Chdir("../.."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n          int
		v, used    float64
		wantBeyond int
	}{
		{n: 2000, v: 1980, used: 0.99, wantBeyond: 20},
		{n: 1000, v: 990, used: 0.99, wantBeyond: 10},
		// Fewer than 1000 samples: p99 would have under ten beyond it, so
		// the highest quantile that keeps ten beyond is reported.
		{n: 999, v: 989, used: 989.0 / 999, wantBeyond: 10},
		{n: 500, v: 490, used: 0.98, wantBeyond: 10},
		{n: 11, v: 1, used: 1.0 / 11, wantBeyond: 10},
		// No quantile has ten beyond: the median stands in.
		{n: 10, v: 5, used: 0.5, wantBeyond: 5},
	} {
		v, used, beyond := Tail(seq(tc.n), 0.99)
		if v != tc.v || used != tc.used || beyond != tc.wantBeyond {
			t.Errorf("n=%d: Tail = (%v, %v, %d), want (%v, %v, %d)", tc.n, v, used, beyond, tc.v, tc.used, tc.wantBeyond)
		}
	}
	if q := quantile(seq(100), 0.5); q != 50 {
		t.Errorf("median of 1..100 = %v, want 50", q)
	}
}

// bulkInputs generates a small bulk-dense input set with its oracle.
func bulkInputs(t *testing.T) (Workload, []*cfgtag.Engine, *Inputs) {
	t.Helper()
	w, err := Lookup("bulk-dense")
	if err != nil {
		t.Fatal(err)
	}
	engines, err := Compile(w)
	if err != nil {
		t.Fatal(err)
	}
	in, err := Generate(w, engines, 7, time.Second, ChurnRate)
	if err != nil {
		t.Fatal(err)
	}
	return w, engines, in
}

func TestGenerateIsSeeded(t *testing.T) {
	w, err := Lookup("churn-mixed")
	if err != nil {
		t.Fatal(err)
	}
	engines, err := Compile(w)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Generate(w, engines, 3, time.Second, 500)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(w, engines, 3, time.Second, 500)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Generate(w, engines, 4, time.Second, 500)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest || a.Digest == c.Digest {
		t.Fatalf("digests: seed 3 %s and %s, seed 4 %s", a.Digest, b.Digest, c.Digest)
	}
}

// fakeMux serves CFGTAG/1 mux connections by answering each closed
// stream with the oracle's text, with one byte flipped in the response
// to the stream keyed corrupt.
func fakeMux(t *testing.T, engine *cfgtag.Engine, corrupt string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				be, err := engine.NewBackend(cfgtag.AOTBackend)
				if err != nil {
					t.Error(err)
					return
				}
				fr := serve.NewFrameReader(c)
				if _, err := fr.ReadHandshake(); err != nil {
					return
				}
				data := map[string][]byte{}
				for {
					f, err := fr.ReadFrame()
					if err != nil {
						return
					}
					switch f.Op {
					case serve.FrameData:
						data[f.Key] = append(data[f.Key], f.Payload...)
					case serve.FrameClose:
						text, _, err := ExpectedText(be, data[f.Key])
						if err != nil {
							t.Error(err)
							return
						}
						if f.Key == corrupt {
							text[4] ^= 1 // a digit of the first TAG line's end offset
						}
						var out []byte
						sc := bufio.NewScanner(bytes.NewReader(text))
						for sc.Scan() {
							out = append(append(append(out, f.Key+" "...), sc.Bytes()...), '\n')
						}
						if _, err := c.Write(out); err != nil {
							return
						}
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

func TestOracleCatchesOneCorruptByte(t *testing.T) {
	w, engines, in := bulkInputs(t)
	addr := fakeMux(t, engines[0], "s2")
	cl, err := DialMux(addr, 0, w.Tenants[0].Name, in, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var n atomic.Int64
	recs := cl.Drive(1, true, func() (int, bool) {
		i := n.Add(1) - 1
		return in.Order[i], i < 4
	})
	lr := &loadRun{recs: recs, inBytes: 1, elapsed: time.Second}
	ms, res := lr.endToEnd(w)
	var mismatch float64
	for _, m := range ms {
		if m.name == "mismatch_streams" {
			mismatch = m.value
		}
	}
	if res.Attempted != 4 || res.Failed != 0 || res.Correct || mismatch != 1 {
		t.Fatalf("attempted %d failed %d correct %v mismatch %v; want 4 0 false 1", res.Attempted, res.Failed, res.Correct, mismatch)
	}
	for _, r := range recs {
		if r.match == (r.key == "s2") {
			t.Errorf("stream %s: match=%v", r.key, r.match)
		}
	}
}

func TestServeStackMatchesOracle(t *testing.T) {
	w, _, in := bulkInputs(t)
	bps, tags, want, err := serveLadder(w, in, in.Order, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if bps <= 0 || tags == 0 || tags != want {
		t.Fatalf("serve rung: %d B/s, %d tags, want %d", bps, tags, want)
	}
}

// stallServer answers pipelined POSTs in order on each connection,
// holding the first response for stall.
func stallServer(t *testing.T, stall time.Duration) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var first atomic.Bool
	srv := &http.Server{Handler: http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if first.CompareAndSwap(false, true) {
			time.Sleep(stall)
		}
		io.WriteString(rw, "END 0\n")
	})}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

func TestOpenLoopTimesFromDue(t *testing.T) {
	const stall = 60 * time.Millisecond
	in := &Inputs{Bodies: []Body{{Data: []byte("x")}}, Measured: [2]time.Duration{0, time.Hour}}
	for i := 0; i < 20; i++ {
		in.Arrivals = append(in.Arrivals, Arrival{Due: time.Duration(i) * time.Millisecond})
	}
	ol, err := DialOpen(stallServer(t, stall), []string{"t"}, in, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer ol.Close()
	recs := ol.Run(time.Now())
	// Every request queued behind the stalled first one is charged the
	// wait from its own due time, though its own service is instant.
	for i, r := range recs {
		if !r.ok {
			t.Fatalf("arrival %d failed", i)
		}
		due := time.Duration(i) * time.Millisecond
		if min := stall - due - 5*time.Millisecond; r.latency() < min {
			t.Errorf("arrival %d: latency %v, want at least %v", i, r.latency(), min)
		}
	}

	// A generator that falls behind sends late, and the lateness is part
	// of the latency, since both count from the due time.
	ol2, err := DialOpen(stallServer(t, 0), []string{"t"}, in, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer ol2.Close()
	const behind = 40 * time.Millisecond
	recs = ol2.Run(time.Now().Add(-behind))
	for i, r := range recs {
		late := time.Duration(r.sent - r.start)
		if want := behind - time.Duration(i)*time.Millisecond; late < want || r.latency() < late {
			t.Errorf("arrival %d: late %v (want at least %v), latency %v", i, late, want, r.latency())
		}
	}
}
