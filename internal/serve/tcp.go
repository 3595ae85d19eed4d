package serve

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cfgtag"
)

// TCPOptions tunes one TCP listener.
type TCPOptions struct {
	// Tenant fixes the listener's tenant; required in Raw mode, ignored
	// otherwise (protocol connections name their tenant in the
	// handshake).
	Tenant string
	// Raw skips the wire protocol entirely: each connection is one
	// stream of Tenant, keyed by remote address, fed until EOF — the
	// xmlrouter-compatible mode.
	Raw bool
	// NoEcho suppresses writing tag events back to the client (used
	// when an adapter core routes batches to its own sinks).
	NoEcho bool
	// WriteTimeout bounds each write back to a client (0 = 30s); a
	// client that stops reading is dropped, never the pipeline.
	WriteTimeout time.Duration
}

func (o TCPOptions) writeTimeout() time.Duration {
	if o.WriteTimeout <= 0 {
		return 30 * time.Second
	}
	return o.WriteTimeout
}

// TCPInput accepts TCP connections carrying either raw single-stream
// payloads or the CFGTAG/1 protocol (dedicated STREAM connections and
// key-multiplexed MUX connections).
type TCPInput struct {
	ln  net.Listener
	opt TCPOptions

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
	rawSeq atomic.Int64

	// held counts the closed mux sessions the connection pumps still
	// hold while their final line may be in flight.
	held atomic.Int64
}

// NewTCPInput wraps an already-listening socket.
func NewTCPInput(ln net.Listener, opt TCPOptions) *TCPInput {
	return &TCPInput{ln: ln, opt: opt, conns: make(map[net.Conn]struct{})}
}

// Addr reports the listener address.
func (t *TCPInput) Addr() net.Addr { return t.ln.Addr() }

// Serve runs the accept loop until Close.
func (t *TCPInput) Serve(s *Server) error {
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		if s.Draining() {
			// Refuse, but tell the client why before hanging up (unless
			// the listener speaks a raw protocol with no write-backs).
			if !t.opt.NoEcho {
				conn.SetWriteDeadline(time.Now().Add(time.Second))
				io.WriteString(conn, "ERR! draining\n")
			}
			conn.Close()
			s.CountRefusal()
			continue
		}
		if !t.track(conn) {
			conn.Close()
			return nil
		}
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			defer t.untrack(conn)
			t.handle(s, conn)
		}()
	}
}

func (t *TCPInput) track(conn net.Conn) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return false
	}
	t.conns[conn] = struct{}{}
	return true
}

func (t *TCPInput) untrack(conn net.Conn) {
	t.mu.Lock()
	delete(t.conns, conn)
	t.mu.Unlock()
}

// Close stops accepting, closes every live connection and joins the
// handlers. The server calls it in the last shutdown stage, after every
// session's final output line has been delivered.
func (t *TCPInput) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	conns := make([]net.Conn, 0, len(t.conns))
	for c := range t.conns {
		conns = append(conns, c)
	}
	t.mu.Unlock()
	err := t.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	t.wg.Wait()
	return err
}

// connWriter serializes writes back to one connection with a per-write
// deadline and a sticky error: after the first failure every write fails
// fast, so a dead client costs nothing further. A write that misses its
// deadline is wrapped as ErrSlowConsumer and reported through onSlow —
// dropping a reader that stalled, not one that hung up, is a shedding
// decision worth counting separately.
type connWriter struct {
	mu      sync.Mutex
	c       net.Conn
	timeout time.Duration
	onSlow  func()
	err     error
}

func (cw *connWriter) Write(p []byte) (int, error) {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	if cw.err != nil {
		return 0, cw.err
	}
	cw.c.SetWriteDeadline(time.Now().Add(cw.timeout))
	n, err := cw.c.Write(p)
	if err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			err = fmt.Errorf("%w: %v", ErrSlowConsumer, err)
			if cw.onSlow != nil {
				cw.onSlow()
			}
		}
		cw.err = err
	}
	return n, err
}

func (cw *connWriter) line(s string) { cw.Write(append([]byte(s), '\n')) }

// errText maps Send/open errors to the short reason written on the wire.
func errText(err error) string {
	switch {
	case errors.Is(err, cfgtag.ErrOverloaded):
		return "overloaded"
	case errors.Is(err, cfgtag.ErrResourceExhausted):
		return "resource exhausted"
	case errors.Is(err, cfgtag.ErrQuotaExceeded):
		return "quota exceeded"
	case errors.Is(err, cfgtag.ErrUnknownTenant):
		return "unknown tenant"
	case errors.Is(err, ErrDraining):
		return "draining"
	case errors.Is(err, ErrDuplicateStream):
		return "duplicate stream"
	case errors.Is(err, cfgtag.ErrPlatformClosed), errors.Is(err, cfgtag.ErrPipelineClosed):
		return "shutting down"
	default:
		return "error"
	}
}

func (t *TCPInput) handle(s *Server, conn net.Conn) {
	defer conn.Close()
	cw := &connWriter{c: conn, timeout: t.opt.writeTimeout(), onSlow: s.CountSlowConsumer}
	if t.opt.Raw {
		key := fmt.Sprintf("%s#%d", conn.RemoteAddr(), t.rawSeq.Add(1))
		t.pumpStream(s, conn, cw, t.opt.Tenant, key, nil)
		return
	}
	fr := NewFrameReader(conn)
	hs, err := fr.ReadHandshake()
	if err != nil {
		cw.line("ERR! bad handshake")
		s.CountRefusal()
		return
	}
	if hs.Mux {
		t.pumpMux(s, fr, cw, hs.Tenant)
		return
	}
	var out Output
	if !t.opt.NoEcho {
		out = &TagWriter{W: cw}
	}
	t.pumpStream(s, fr.r, cw, hs.Tenant, hs.Key, out)
}

// pumpStream drives one dedicated-stream connection: register the
// session, copy bytes into the core until EOF, close the stream and wait
// for its final output line before hanging up. A nil out in protocol
// mode keeps the session silent (NoEcho).
func (t *TCPInput) pumpStream(s *Server, r io.Reader, cw *connWriter, tenant, key string, out Output) {
	if t.opt.Raw && !t.opt.NoEcho {
		out = &TagWriter{W: cw}
	}
	sess, err := s.OpenStream(tenant, key, out)
	if err != nil {
		if !t.opt.NoEcho {
			cw.line("ERR " + errText(err))
		}
		return
	}
	core := s.Core()
	sent := false
	buf := make([]byte, 32<<10)
	for {
		n, rerr := r.Read(buf)
		if n > 0 {
			if serr := core.Send(tenant, key, buf[:n]); serr != nil {
				t.failStream(s, cw, tenant, key, "", sent, serr)
				return
			}
			sent = true
		}
		if rerr != nil {
			break
		}
	}
	if err := core.CloseStream(tenant, key); err != nil {
		// A faulted stream already delivered its ERR batch; everything
		// else still needs the session released.
		s.EndStream(tenant, key)
		return
	}
	// Wait for the EOS batch to land so the END line reaches the client
	// before the socket closes. Server shutdown force-flushes via
	// Core.Close, so this wait always terminates.
	<-sess.Done()
}

// failStream reports a Send failure to the client and releases the
// stream. Quarantined streams already ended with an ERR batch, so they
// are released silently; streams that never entered the pipeline are
// simply unregistered; mid-life kills are flushed through CloseStream so
// the pipeline does not leak the stream.
func (t *TCPInput) failStream(s *Server, cw *connWriter, tenant, key, prefix string, sent bool, err error) {
	if !errors.Is(err, cfgtag.ErrStreamQuarantined) {
		if !t.opt.NoEcho {
			cw.line(prefix + "ERR " + errText(err))
		}
		s.CountRefusal()
	}
	if sent {
		s.Core().CloseStream(tenant, key)
	}
	s.EndStream(tenant, key)
}

// muxStream is per-connection bookkeeping for one multiplexed stream.
type muxStream struct {
	sess *session
	sent bool
}

// endedSessions is a mux connection's closed streams, held until their
// final line is out. Finished sessions are swept out each time the list
// doubles, so a long-lived connection retains only the streams still in
// flight, not one session (and its output) per stream it ever carried.
type endedSessions struct {
	list    []*session
	sweepAt int
	held    *atomic.Int64
}

func (es *endedSessions) add(sess *session) {
	if len(es.list) >= es.sweepAt {
		live := es.list[:0]
		for _, ss := range es.list {
			select {
			case <-ss.Done():
			default:
				live = append(live, ss)
			}
		}
		clear(es.list[len(live):])
		es.held.Add(int64(len(live) - len(es.list)))
		es.list = live
		es.sweepAt = 2*len(live) + 64
	}
	es.list = append(es.list, sess)
	es.held.Add(1)
}

// wait blocks until every held session has written its final line.
func (es *endedSessions) wait() {
	for _, ss := range es.list {
		<-ss.Done()
	}
	es.held.Add(-int64(len(es.list)))
	es.list = nil
}

// pumpMux drives one multiplexed connection: OPEN/DATA/CLOSE frames for
// many keyed streams, responses interleaved per batch with a "<key> "
// prefix. On EOF every still-open stream is flushed, and the connection
// stays up until each stream's final line is written.
func (t *TCPInput) pumpMux(s *Server, fr *FrameReader, cw *connWriter, tenant string) {
	core := s.Core()
	open := make(map[string]*muxStream)
	pending := endedSessions{held: &t.held}
	for {
		f, err := fr.ReadFrame()
		if err != nil {
			if errors.Is(err, ErrProtocol) {
				cw.line("ERR! " + err.Error())
			}
			break
		}
		switch f.Op {
		case FrameOpen:
			if _, ok := open[f.Key]; ok {
				cw.line(f.Key + " ERR duplicate stream")
				s.CountRefusal()
				continue
			}
			var out Output
			if !t.opt.NoEcho {
				out = &TagWriter{W: cw, Prefix: f.Key + " "}
			}
			sess, err := s.OpenStream(tenant, f.Key, out)
			if err != nil {
				cw.line(f.Key + " ERR " + errText(err))
				continue
			}
			open[f.Key] = &muxStream{sess: sess}
		case FrameData:
			ms, ok := open[f.Key]
			if !ok {
				cw.line(f.Key + " ERR not open")
				continue
			}
			if err := core.Send(tenant, f.Key, f.Payload); err != nil {
				t.failStream(s, cw, tenant, f.Key, f.Key+" ", ms.sent, err)
				pending.add(ms.sess)
				delete(open, f.Key)
				continue
			}
			ms.sent = true
		case FrameClose:
			ms, ok := open[f.Key]
			if !ok {
				cw.line(f.Key + " ERR not open")
				continue
			}
			core.CloseStream(tenant, f.Key)
			pending.add(ms.sess)
			delete(open, f.Key)
		}
	}
	// Client is gone (or spoke garbage): flush whatever it left open so
	// no stream leaks, then wait for every final line to go out.
	for key, ms := range open {
		if core.CloseStream(tenant, key) != nil {
			s.EndStream(tenant, key)
		}
		pending.add(ms.sess)
	}
	pending.wait()
}
