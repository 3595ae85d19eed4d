package harness

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/maphash"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cfgtag/internal/serve"
)

// streamRec is one stream as the load generator saw it. Times are Unix
// nanoseconds so they line up with the spans the traced server records.
type streamRec struct {
	tenant   int
	key      string
	bytes    int
	tags     int // TAG lines the oracle expects
	want     uint64
	measured bool
	start    int64 // closed loop: first frame written; open loop: due time
	offered  int64 // latency origin: CLOSE written, or due time
	sent     int64 // open loop: when the request was written
	done     int64 // response complete; 0 when it never completed
	ok       bool  // ended with END or HTTP 200
	match    bool  // response hash equals the oracle's
	h        maphash.Hash
	fin      chan struct{}
}

func newRec(tenant int, key string, b *Body, measured bool) *streamRec {
	r := &streamRec{tenant: tenant, key: key, bytes: len(b.Data), tags: b.Tags, want: b.Want, measured: measured, fin: make(chan struct{})}
	r.h.SetSeed(hashSeed)
	return r
}

// finish records the response outcome; it runs once per stream.
func (r *streamRec) finish(ok bool) {
	r.done = time.Now().UnixNano()
	r.ok = ok
	r.match = ok && r.h.Sum64() == r.want
	close(r.fin)
}

// latency is the time from the latency origin to the full response.
func (r *streamRec) latency() time.Duration { return time.Duration(r.done - r.offered) }

// connStats are one connection's write-side and read-side totals.
type connStats struct {
	writeNS atomic.Int64 // time spent inside conn.Write
	rx      atomic.Int64 // response bytes read
}

func (cs *connStats) write(c net.Conn, p []byte) error {
	t0 := time.Now()
	_, err := c.Write(p)
	cs.writeNS.Add(int64(time.Since(t0)))
	return err
}

// MuxClient is the closed-loop generator: CFGTAG/1 mux connections, each
// carrying a fixed number of stream slots. A slot writes one whole stream
// in ChunkBytes DATA frames, closes it and waits for its END line before
// opening the next.
type MuxClient struct {
	in     *Inputs
	tenant int
	conns  []*muxConn
	seq    atomic.Int64 // stream keys, unique for the client's lifetime
}

type muxConn struct {
	connStats
	c    net.Conn
	wmu  sync.Mutex
	mu   sync.Mutex
	open map[string]*streamRec
	dead chan struct{} // closed when the reader stops
}

// DialMux opens conns mux connections to addr for the given tenant.
func DialMux(addr string, tenant int, tenantName string, in *Inputs, conns int) (*MuxClient, error) {
	cl := &MuxClient{in: in, tenant: tenant}
	hs := serve.AppendHandshake(nil, serve.Handshake{Tenant: tenantName, Mux: true})
	for i := 0; i < conns; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			cl.Close()
			return nil, err
		}
		mc := &muxConn{c: c, open: make(map[string]*streamRec), dead: make(chan struct{})}
		cl.conns = append(cl.conns, mc)
		if _, err := c.Write(hs); err != nil {
			cl.Close()
			return nil, err
		}
		go mc.read()
	}
	return cl, nil
}

// Close hangs up every connection and waits for the readers to stop.
func (cl *MuxClient) Close() {
	for _, mc := range cl.conns {
		mc.c.Close()
		<-mc.dead
	}
}

// Drive runs slots stream slots on every connection until next reports
// no more streams, and returns the records of every stream started.
// next returns the body index of the next stream.
func (cl *MuxClient) Drive(slots int, measured bool, next func() (int, bool)) []*streamRec {
	var mu sync.Mutex
	var recs []*streamRec
	var wg sync.WaitGroup
	for _, mc := range cl.conns {
		for s := 0; s < slots; s++ {
			wg.Add(1)
			go func(mc *muxConn) {
				defer wg.Done()
				buf := make([]byte, 0, ChunkBytes+64)
				for {
					bi, ok := next()
					if !ok {
						return
					}
					key := "s" + strconv.FormatInt(cl.seq.Add(1), 10)
					r := newRec(cl.tenant, key, &cl.in.Bodies[bi], measured)
					mu.Lock()
					recs = append(recs, r)
					mu.Unlock()
					if !mc.stream(r, cl.in.Bodies[bi].Data, buf) {
						return
					}
				}
			}(mc)
		}
	}
	wg.Wait()
	return recs
}

// stream writes one stream and waits for its final line; false when the
// connection died.
func (mc *muxConn) stream(r *streamRec, data, buf []byte) bool {
	mc.mu.Lock()
	mc.open[r.key] = r
	mc.mu.Unlock()
	r.start = time.Now().UnixNano()
	buf = serve.AppendFrame(buf[:0], serve.Frame{Op: serve.FrameOpen, Key: r.key})
	for lo := 0; lo < len(data); lo += ChunkBytes {
		buf = serve.AppendFrame(buf, serve.Frame{Op: serve.FrameData, Key: r.key, Payload: data[lo:min(lo+ChunkBytes, len(data))]})
		if !mc.send(buf) {
			return false
		}
		buf = buf[:0]
	}
	r.offered = time.Now().UnixNano()
	if !mc.send(serve.AppendFrame(buf[:0], serve.Frame{Op: serve.FrameClose, Key: r.key})) {
		return false
	}
	select {
	case <-r.fin:
		return true
	case <-mc.dead:
		return false
	}
}

func (mc *muxConn) send(p []byte) bool {
	mc.wmu.Lock()
	defer mc.wmu.Unlock()
	return mc.write(mc.c, p) == nil
}

// read demultiplexes the connection's response lines by key prefix into
// each stream's hash, finishing a stream at its END or ERR line. A
// connection-level error fails every stream still open on it.
func (mc *muxConn) read() {
	defer close(mc.dead)
	br := bufio.NewReaderSize(mc.c, 64<<10)
	var last *streamRec
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			break
		}
		mc.rx.Add(int64(len(line)))
		sp := bytes.IndexByte(line, ' ')
		if sp <= 0 || bytes.HasPrefix(line, []byte("ERR! ")) {
			break
		}
		r := last
		if r == nil || r.key != string(line[:sp]) {
			mc.mu.Lock()
			r = mc.open[string(line[:sp])]
			mc.mu.Unlock()
			if r == nil {
				break // a line for no open stream: the protocol is broken
			}
			last = r
		}
		rest := line[sp+1:]
		r.h.Write(rest)
		if bytes.HasPrefix(rest, []byte("END ")) || bytes.HasPrefix(rest, []byte("ERR ")) {
			mc.mu.Lock()
			delete(mc.open, r.key)
			mc.mu.Unlock()
			r.finish(rest[1] == 'N')
			last = nil
		}
	}
	mc.mu.Lock()
	for k, r := range mc.open {
		delete(mc.open, k)
		r.finish(false)
	}
	mc.mu.Unlock()
}

func (cl *MuxClient) stats() (writeNS, rx int64) {
	for _, mc := range cl.conns {
		writeNS += mc.writeNS.Load()
		rx += mc.rx.Load()
	}
	return writeNS, rx
}

// OpenLoop is the open-loop generator: each arrival is one HTTP POST
// stream, written on its connection at its due time whether or not
// earlier responses have come back (requests pipeline on keep-alive
// connections), and timed from its due time.
type OpenLoop struct {
	in      *Inputs
	tenants []string
	conns   []*httpConn
}

type httpConn struct {
	connStats
	c    net.Conn
	fifo chan *streamRec
}

// DialOpen opens conns keep-alive HTTP connections to addr.
func DialOpen(addr string, tenants []string, in *Inputs, conns int) (*OpenLoop, error) {
	ol := &OpenLoop{in: in, tenants: tenants}
	for i := 0; i < conns; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			ol.Close()
			return nil, err
		}
		ol.conns = append(ol.conns, &httpConn{c: c})
	}
	return ol, nil
}

// Close hangs up every connection.
func (ol *OpenLoop) Close() {
	for _, hc := range ol.conns {
		hc.c.Close()
	}
}

// Run plays the whole schedule from start, arrival i on connection
// i mod conns, and returns once every response is in or failed. Records
// come back in schedule order.
func (ol *OpenLoop) Run(start time.Time) []*streamRec {
	recs := make([]*streamRec, len(ol.in.Arrivals))
	var wg sync.WaitGroup
	for _, hc := range ol.conns {
		// Every arrival fits: the sender never waits on a reader.
		hc.fifo = make(chan *streamRec, len(recs)/len(ol.conns)+1)
		wg.Add(1)
		go func(hc *httpConn) {
			defer wg.Done()
			hc.receive()
		}(hc)
	}
	ol.send(start, recs)
	wg.Wait()
	return recs
}

// send is the pacer: one goroutine writes every arrival at its due time.
// It waits in nanosleep, which wakes within tens of microseconds, where a
// runtime timer wakes up to a millisecond late and would add that to every
// latency measured from the due time.
func (ol *OpenLoop) send(start time.Time, recs []*streamRec) {
	var req []byte
	dead := make([]bool, len(ol.conns))
	for i, a := range ol.in.Arrivals {
		b := &ol.in.Bodies[a.Body]
		due := start.Add(a.Due)
		if d := time.Until(due); d > 0 {
			ts := syscall.NsecToTimespec(int64(d))
			syscall.Nanosleep(&ts, nil)
		}
		r := newRec(b.Tenant, "q"+strconv.Itoa(i), b, a.Due >= ol.in.Measured[0] && a.Due < ol.in.Measured[1])
		r.start, r.offered = due.UnixNano(), due.UnixNano()
		recs[i] = r
		ci := i % len(ol.conns)
		if dead[ci] {
			r.finish(false) // never written: its connection is gone
			continue
		}
		hc := ol.conns[ci]
		req = fmt.Appendf(req[:0], "POST /v1/streams/%s/%s HTTP/1.1\r\nHost: sut\r\nContent-Length: %d\r\n\r\n",
			ol.tenants[b.Tenant], r.key, len(b.Data))
		req = append(req, b.Data...)
		hc.fifo <- r
		r.sent = time.Now().UnixNano()
		dead[ci] = hc.write(hc.c, req) != nil
	}
	for _, hc := range ol.conns {
		close(hc.fifo)
	}
}

// receive reads the pipelined responses in request order.
func (hc *httpConn) receive() {
	br := bufio.NewReaderSize(countingReader{hc.c, &hc.rx}, 64<<10)
	broken := false
	for r := range hc.fifo {
		if broken {
			r.finish(false)
			continue
		}
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			broken = true
			r.finish(false)
			continue
		}
		_, err = io.Copy(&r.h, resp.Body)
		resp.Body.Close()
		if err != nil {
			broken = true
		}
		r.finish(err == nil && resp.StatusCode == http.StatusOK)
	}
}

func (ol *OpenLoop) stats() (writeNS, rx int64) {
	for _, hc := range ol.conns {
		writeNS += hc.writeNS.Load()
		rx += hc.rx.Load()
	}
	return writeNS, rx
}

type countingReader struct {
	r io.Reader
	n *atomic.Int64
}

func (c countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}
