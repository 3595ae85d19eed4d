package serve

import (
	"bytes"
	"errors"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
)

func TestParseHandshake(t *testing.T) {
	cases := []struct {
		in      string
		want    Handshake
		wantErr error
	}{
		{"CFGTAG/1 STREAM alpha key-1\n", Handshake{Tenant: "alpha", Key: "key-1"}, nil},
		{"CFGTAG/1 MUX alpha\n", Handshake{Tenant: "alpha", Mux: true}, nil},
		{"CFGTAG/1 MUX alpha extra\n", Handshake{}, ErrBadHandshake},
		{"CFGTAG/1 STREAM alpha\n", Handshake{}, ErrBadHandshake},
		{"CFGTAG/2 STREAM alpha key\n", Handshake{}, ErrBadHandshake},
		{"CFGTAG/1 STREAM  key\n", Handshake{}, ErrBadName},
		{"CFGTAG/1 STREAM al pha key\n", Handshake{}, ErrBadHandshake},
		{"CFGTAG/1 STREAM alpha " + strings.Repeat("k", MaxNameLen+1) + "\n", Handshake{}, ErrBadName},
		{"\n", Handshake{}, ErrBadHandshake},
		{"CFGTAG/1 STREAM alpha k\x00ey\n", Handshake{}, ErrBadName},
		{strings.Repeat("x", MaxLineLen+10), Handshake{}, ErrLineTooLong},
		{"CFGTAG/1 STREAM alpha key", Handshake{}, io.ErrUnexpectedEOF},
		{"", Handshake{}, io.EOF},
	}
	for _, c := range cases {
		hs, err := NewFrameReader(strings.NewReader(c.in)).ReadHandshake()
		if c.wantErr != nil {
			if !errors.Is(err, c.wantErr) {
				t.Errorf("ReadHandshake(%q) err = %v, want %v", c.in, err, c.wantErr)
			}
			continue
		}
		if err != nil || hs != c.want {
			t.Errorf("ReadHandshake(%q) = %+v, %v; want %+v", c.in, hs, err, c.want)
		}
	}
}

func TestParseFrames(t *testing.T) {
	var buf []byte
	buf = AppendFrame(buf, Frame{Op: FrameOpen, Key: "s1"})
	buf = AppendFrame(buf, Frame{Op: FrameData, Key: "s1", Payload: []byte("hello\nworld")})
	buf = AppendFrame(buf, Frame{Op: FrameData, Key: "s1", Payload: nil})
	buf = AppendFrame(buf, Frame{Op: FrameClose, Key: "s1"})
	fr := NewFrameReader(bytes.NewReader(buf))
	f, err := fr.ReadFrame()
	if err != nil || f.Op != FrameOpen || f.Key != "s1" {
		t.Fatalf("frame 1: %+v, %v", f, err)
	}
	f, err = fr.ReadFrame()
	if err != nil || f.Op != FrameData || string(f.Payload) != "hello\nworld" {
		t.Fatalf("frame 2: %+v, %v", f, err)
	}
	f, err = fr.ReadFrame()
	if err != nil || f.Op != FrameData || len(f.Payload) != 0 {
		t.Fatalf("frame 3: %+v, %v", f, err)
	}
	f, err = fr.ReadFrame()
	if err != nil || f.Op != FrameClose || f.Key != "s1" {
		t.Fatalf("frame 4: %+v, %v", f, err)
	}
	if _, err = fr.ReadFrame(); err != io.EOF {
		t.Fatalf("trailing read: %v, want io.EOF", err)
	}
}

func TestParseFrameErrors(t *testing.T) {
	cases := []struct {
		in      string
		wantErr error
	}{
		{"NOPE s1\n", ErrBadFrame},
		{"OPEN\n", ErrBadFrame},
		{"OPEN a b\n", ErrBadFrame},
		{"DATA s1\n", ErrBadFrame},
		{"DATA s1 -1\n", ErrBadFrame},
		{"DATA s1 007\n", ErrBadFrame},
		{"DATA s1 999999999\n", ErrBadFrame},
		{"DATA s1 1048577\n", ErrPayloadTooLarge},
		{"DATA s1 5\nab", io.ErrUnexpectedEOF},
		{"DATA s1 2\nabX", ErrBadFrame}, // desynced length: no terminator
		{"CLOSE " + strings.Repeat("k", MaxNameLen+1) + "\n", ErrBadName},
		{"OPEN \x01\n", ErrBadName},
	}
	for _, c := range cases {
		_, err := NewFrameReader(strings.NewReader(c.in)).ReadFrame()
		if !errors.Is(err, c.wantErr) {
			t.Errorf("ReadFrame(%q) err = %v, want %v", c.in, err, c.wantErr)
		}
	}
}

// TestFrameRoundTrip: whatever AppendFrame writes, ReadFrame returns.
func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Op: FrameOpen, Key: "k"},
		{Op: FrameData, Key: "k", Payload: bytes.Repeat([]byte{0xf7}, 1000)},
		{Op: FrameData, Key: strings.Repeat("K", MaxNameLen), Payload: []byte("x")},
		{Op: FrameClose, Key: "k"},
	}
	var buf []byte
	for _, f := range frames {
		buf = AppendFrame(buf, f)
	}
	fr := NewFrameReader(bytes.NewReader(buf))
	for i, want := range frames {
		got, err := fr.ReadFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Op != want.Op || got.Key != want.Key || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d: got %+v want %+v", i, got, want)
		}
	}
}

// TestAppendInt pins the decimal rendering of TAG ends and indices, END
// totals and DATA lengths, including a negative value, which must keep its
// sign rather than vanish from the line.
func TestAppendInt(t *testing.T) {
	cases := []struct {
		n    int
		want string
	}{
		{0, "0"},
		{9, "9"},
		{10, "10"},
		{4096, "4096"},
		{math.MaxInt, strconv.Itoa(math.MaxInt)},
		{-1, "-1"},
	}
	for _, c := range cases {
		if got := string(appendInt([]byte("x"), c.n)); got != "x"+c.want {
			t.Errorf("appendInt(%d) = %q, want %q", c.n, got, "x"+c.want)
		}
	}
}
