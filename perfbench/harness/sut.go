package harness

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The server under test and the benchmark talk over the server's stdin
// and stdout, one line per command and reply:
//
//	server:  READY <tcp-addr> <http-addr>
//	STATS    -> STATS <Usage as JSON>
//	RELOAD t -> RELOADED <nanoseconds> | ERROR <text>
//	TRACE 1|0 -> OK            start or stop recording spans
//	QUIT     -> BYE            after draining and writing the spans

// Usage is the server process's own resource accounting.
type Usage struct {
	CPUNS      int64   `json:"cpu_ns"` // user + system, from getrusage
	MaxRSSKB   int64   `json:"maxrss_kb"`
	AllocBytes uint64  `json:"alloc_bytes"` // cumulative heap allocation
	GCCPU      float64 `json:"gc_cpu_s"`    // runtime/metrics estimate
	TotalCPU   float64 `json:"total_cpu_s"` // runtime/metrics estimate
}

// ReadUsage samples the calling process.
func ReadUsage() Usage {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	s := []rtmetrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(s)
	u := Usage{CPUNS: ru.Utime.Nano() + ru.Stime.Nano(), MaxRSSKB: ru.Maxrss}
	if s[0].Value.Kind() == rtmetrics.KindUint64 {
		u.AllocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == rtmetrics.KindFloat64 {
		u.GCCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == rtmetrics.KindFloat64 {
		u.TotalCPU = s[2].Value.Float64()
	}
	return u
}

// SUT is a running server under test.
type SUT struct {
	TCP, HTTP string

	cmd   *exec.Cmd
	stdin io.WriteCloser
	lines chan string
	mu    sync.Mutex // one command in flight
}

const sutReplyTimeout = 60 * time.Second

// LaunchSUT starts the server binary for a workload and waits until it
// listens; it returns the time from launch to ready. A non-empty
// traceOut switches span recording on in the server.
func LaunchSUT(bin, workload, traceOut string) (*SUT, time.Duration, error) {
	t0 := time.Now()
	args := []string{"-workload", workload}
	if traceOut != "" {
		args = append(args, "-trace-out", traceOut)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, 0, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	s := &SUT{cmd: cmd, stdin: stdin, lines: make(chan string, 4)}
	go func() {
		defer close(s.lines)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			s.lines <- sc.Text()
		}
	}()
	ready, err := s.reply("READY ")
	if err != nil {
		s.kill()
		return nil, 0, err
	}
	setup := time.Since(t0)
	if _, err := fmt.Sscan(ready, &s.TCP, &s.HTTP); err != nil {
		s.kill()
		return nil, 0, fmt.Errorf("sut: bad READY line %q", ready)
	}
	return s, setup, nil
}

func (s *SUT) reply(prefix string) (string, error) {
	select {
	case l, ok := <-s.lines:
		if !ok {
			return "", errors.New("sut: exited before replying")
		}
		if !strings.HasPrefix(l, prefix) {
			return "", fmt.Errorf("sut: want %q reply, got %q", prefix, l)
		}
		return l[len(prefix):], nil
	case <-time.After(sutReplyTimeout):
		return "", fmt.Errorf("sut: no %q reply within %v", prefix, sutReplyTimeout)
	}
}

func (s *SUT) call(cmd, prefix string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := fmt.Fprintln(s.stdin, cmd); err != nil {
		return "", fmt.Errorf("sut: %s: %w", cmd, err)
	}
	return s.reply(prefix)
}

// Usage samples the server's resource accounting.
func (s *SUT) Usage() (Usage, error) {
	var u Usage
	l, err := s.call("STATS", "STATS ")
	if err != nil {
		return u, err
	}
	return u, json.Unmarshal([]byte(l), &u)
}

// Reload reloads a tenant from its own grammar file and returns the time
// the Platform.Reload call took.
func (s *SUT) Reload(tenant string) (time.Duration, error) {
	l, err := s.call("RELOAD "+tenant, "RELOADED ")
	if err != nil {
		return 0, err
	}
	ns, err := strconv.ParseInt(l, 10, 64)
	return time.Duration(ns), err
}

// Trace starts or stops span recording.
func (s *SUT) Trace(on bool) error {
	cmd := "TRACE 0"
	if on {
		cmd = "TRACE 1"
	}
	_, err := s.call(cmd, "OK")
	return err
}

// Scrape reads the server's /metrics page into a map keyed by the whole
// series name, labels included.
func (s *SUT) Scrape() (map[string]float64, error) {
	resp, err := http.Get("http://" + s.HTTP + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			m[name] = v
		}
	}
	return m, sc.Err()
}

// Stop drains and stops the server and returns its final resource usage
// (peak RSS included) from the operating system.
func (s *SUT) Stop() (*syscall.Rusage, error) {
	if _, err := s.call("QUIT", "BYE"); err != nil {
		s.kill()
		return nil, err
	}
	s.stdin.Close()
	for range s.lines {
	}
	if err := s.cmd.Wait(); err != nil {
		return nil, fmt.Errorf("sut: %w", err)
	}
	ru, _ := s.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if ru == nil {
		return nil, errors.New("sut: no resource usage")
	}
	return ru, nil
}

// kill ends the server without draining, for error paths.
func (s *SUT) kill() {
	s.cmd.Process.Kill()
	s.stdin.Close()
	for range s.lines {
	}
	s.cmd.Wait()
}
