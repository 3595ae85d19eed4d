// Command sut is the benchmark's server under test: a cfgtag.Platform
// behind the internal/serve TCP and HTTP inputs, wired as
// `cfgtagger -config -listen -listen-http` wires them, with the tenants of
// one benchmark workload. It listens on ephemeral loopback ports and is
// driven over stdin/stdout by the perfbench command (see
// harness/sut.go for the line protocol).
//
// With -trace-out it also times the calls at three layer boundaries from
// wrappers: serve to platform (a serve.Core around the platform),
// platform to serve (around the deliver callback) and pipeline to engine
// (PlatformConfig.WrapFactory). The spans stay in memory and are written
// to the file once, at exit.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"cfgtag"
	"cfgtag/internal/serve"
	"cfgtag/perfbench/harness"
)

func main() {
	workload := flag.String("workload", "", "benchmark workload whose tenants to serve")
	traceOut := flag.String("trace-out", "", "record layer-boundary spans and write them to this file at exit")
	flag.Parse()
	if err := run(*workload, *traceOut); err != nil {
		fmt.Fprintln(os.Stderr, "sut:", err)
		os.Exit(1)
	}
}

func run(workload, traceOut string) error {
	w, err := harness.Lookup(workload)
	if err != nil {
		return err
	}
	cfg := &cfgtag.PlatformConfig{Tenants: w.Tenants}
	srv := serve.NewServer()
	deliver := srv.Deliver
	var tr *harness.Tracer
	if traceOut != "" {
		tr = harness.NewTracer()
		cfg.WrapFactory = tr.WrapFactory
		deliver = tr.Deliver(srv.Deliver)
	}
	p, err := cfgtag.NewPlatform(cfg, deliver)
	if err != nil {
		return err
	}
	var core serve.Core = p
	if tr != nil {
		core = tr.Core(p)
	}
	srv.Bind(core)
	srv.SetStats(p)
	tcpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		p.Close()
		return err
	}
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tcpLn.Close()
		p.Close()
		return err
	}
	srv.AddInput(serve.NewTCPInput(tcpLn, serve.TCPOptions{}))
	srv.AddInput(serve.NewHTTPInput(httpLn))
	if err := srv.Start(); err != nil {
		p.Close()
		return err
	}
	fmt.Printf("READY %s %s\n", tcpLn.Addr(), httpLn.Addr())

	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 {
			continue
		}
		switch {
		case f[0] == "STATS":
			b, _ := json.Marshal(harness.ReadUsage())
			fmt.Printf("STATS %s\n", b)
		case f[0] == "RELOAD" && len(f) == 2:
			t0 := time.Now()
			if _, err := p.ReloadFromFile(f[1]); err != nil {
				fmt.Printf("ERROR %v\n", err)
				continue
			}
			fmt.Printf("RELOADED %d\n", time.Since(t0).Nanoseconds())
		case f[0] == "TRACE" && len(f) == 2:
			if tr != nil {
				tr.SetOn(f[1] == "1")
			}
			fmt.Println("OK")
		case f[0] == "QUIT":
			return quit(srv, tr, traceOut)
		default:
			fmt.Printf("ERROR unknown command %q\n", sc.Text())
		}
	}
	return quit(srv, tr, traceOut)
}

// quit drains the server, writes the spans and says BYE.
func quit(srv *serve.Server, tr *harness.Tracer, traceOut string) error {
	if err := srv.Shutdown(10 * time.Second); err != nil {
		return err
	}
	if tr != nil {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		if err := tr.WriteSpans(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	fmt.Println("BYE")
	return nil
}
