package serve

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"cfgtag"
)

// TestMuxReleasesClosedSessions runs thousands of streams in sequence on
// one mux connection and checks the connection does not keep a session
// per closed stream: finished sessions are swept while the connection
// lives, so the number held stays bounded by what is in flight.
func TestMuxReleasesClosedSessions(t *testing.T) {
	srv := NewServer()
	p, err := cfgtag.NewPlatform(&cfgtag.PlatformConfig{Tenants: []cfgtag.TenantDef{{
		Name:    "alpha",
		Grammar: cfgtag.IfThenElseSource,
		Options: []string{"free-running-start"},
		Backend: "dfa",
		Shards:  1,
	}}}, srv.Deliver)
	if err != nil {
		t.Fatal(err)
	}
	srv.Bind(p)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	in := NewTCPInput(ln, TCPOptions{})
	srv.AddInput(in)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(10 * time.Second)

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	w := bufio.NewWriter(conn)
	r := bufio.NewReader(conn)
	w.Write(AppendHandshake(nil, Handshake{Tenant: "alpha", Mux: true}))
	payload := []byte("if true then go else stop")
	const streams = 3000
	for i := 0; i < streams; i++ {
		key := fmt.Sprintf("k%d", i)
		w.Write(AppendFrame(nil, Frame{Op: FrameOpen, Key: key}))
		w.Write(AppendFrame(nil, Frame{Op: FrameData, Key: key, Payload: payload}))
		w.Write(AppendFrame(nil, Frame{Op: FrameClose, Key: key}))
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		// Wait for the stream's final line before opening the next, so
		// at most one stream is ever in flight.
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				t.Fatalf("stream %s: %v", key, err)
			}
			if strings.HasPrefix(line, key+" END ") {
				break
			}
			if strings.HasPrefix(line, key+" ERR") {
				t.Fatalf("stream %s: %q", key, line)
			}
		}
	}
	if n := in.held.Load(); n > 130 {
		t.Fatalf("connection holds %d sessions after %d sequential streams, want at most 130", n, streams)
	}
}
