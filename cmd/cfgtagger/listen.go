package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cfgtag"
	"cfgtag/internal/serve"
)

// runServe is -listen mode: the multi-tenant platform from the JSON
// config behind network stream inputs. TCP connections speak the
// CFGTAG/1 protocol (dedicated streams or key-multiplexed); HTTP serves
// chunked POST streams plus /metrics and /healthz. SIGHUP hot-swaps
// changed grammars exactly as in -config pipe mode; SIGTERM/SIGINT
// drains gracefully — stop accepting, flush every live stream's final
// batch to its client, then close the listeners.
func runServe(path, tcpAddr, httpAddr string, drain time.Duration) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	cfg, err := cfgtag.ParsePlatformConfig(data)
	if err != nil {
		return err
	}

	srv := serve.NewServer()
	p, err := cfgtag.NewPlatform(cfg, srv.Deliver)
	if err != nil {
		return err
	}
	srv.Bind(p)
	srv.SetStats(p)

	if tcpAddr != "" {
		ln, err := net.Listen("tcp", tcpAddr)
		if err != nil {
			p.Close()
			return err
		}
		srv.AddInput(serve.NewTCPInput(ln, serve.TCPOptions{}))
		fmt.Fprintln(os.Stderr, "cfgtagger: listening (tcp)", ln.Addr())
	}
	if httpAddr != "" {
		ln, err := net.Listen("tcp", httpAddr)
		if err != nil {
			p.Close()
			return err
		}
		srv.AddInput(serve.NewHTTPInput(ln))
		fmt.Fprintln(os.Stderr, "cfgtagger: listening (http)", ln.Addr())
	}

	stopReloads, err := watchReloads(p, path, cfg)
	if err != nil {
		p.Close()
		return err
	}
	defer stopReloads()

	if err := srv.Start(); err != nil {
		p.Close()
		return err
	}

	term := make(chan os.Signal, 1)
	signal.Notify(term, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(term)
	<-term
	fmt.Fprintln(os.Stderr, "cfgtagger: draining...")
	if err := srv.Shutdown(drain); err != nil {
		if errors.Is(err, serve.ErrDrainTimeout) {
			fmt.Fprintf(os.Stderr, "cfgtagger: drain deadline (%v) hit; open streams were force-flushed\n", drain)
		}
		return err
	}
	fmt.Fprintln(os.Stderr, "cfgtagger: drained clean")
	return nil
}
