package router

import (
	"cfgtag/internal/core"
	"cfgtag/internal/runtime"
)

// Sink plugs the content-based switch into the sharded runtime pipeline:
// each delivered batch carries a chunk of one stream plus the tags some
// upstream Backend confirmed over it, and the Sink runs one switching core
// per stream. It implements runtime.Sink; Deliver is called from the
// pipeline's single sink goroutine, so stream state needs no locking.
//
// A Sink decodes one spec: the spec its pipeline factory version was built
// from. A grammar reload builds a new Sink for the new spec and publishes
// it with the new factory (Pipeline.Swap); the pipeline delivers each
// stream's batches to the sink of the version that tagged them.
type Sink struct {
	spec          *core.Spec
	nameInstances map[int]bool
	routes        map[string]int
	defaultPort   int

	validateDepth int
	validatePort  int
	validate      bool

	streams map[string]*switchCore
	stats   Stats

	// OnRoute receives every completed message with the stream it came
	// from and its resolved port and service. The message slice is only
	// valid during the call.
	OnRoute func(stream string, port int, service string, message []byte)
}

// NewSink builds a pipeline sink switching on the terminal detected inside
// nameProduction. The spec must be the very spec the factory version the
// sink is published with was built from (instance IDs must agree); compile
// it with FreeRunningStart so long-lived streams route message after
// message.
func NewSink(spec *core.Spec, nameProduction string, routes []Route, defaultPort int) (*Sink, error) {
	names, err := resolveNameInstances(spec, nameProduction)
	if err != nil {
		return nil, err
	}
	table, err := buildRouteTable(routes)
	if err != nil {
		return nil, err
	}
	s := &Sink{
		spec:          spec,
		nameInstances: names,
		routes:        table,
		defaultPort:   defaultPort,
		streams:       make(map[string]*switchCore),
	}
	s.stats.PerPort = make(map[int]int)
	return s, nil
}

// EnableValidation gives every stream its own section 5.2 stack validator
// (see Router.EnableValidation). Must be called before the first Deliver.
func (s *Sink) EnableValidation(maxDepth, invalidPort int) error {
	// Probe once so a non-LL(1) grammar fails here, not mid-pipeline.
	probe := newSwitchCore(s.spec, s.nameInstances, s.routes, s.defaultPort, &Stats{PerPort: map[int]int{}})
	if err := probe.enableValidation(maxDepth, invalidPort); err != nil {
		return err
	}
	s.validate = true
	s.validateDepth = maxDepth
	s.validatePort = invalidPort
	return nil
}

// Deliver consumes one batch: bytes first, then the tags over them; on EOS
// the stream's core is finished and released. Incomplete final messages
// are counted in Stats rather than failing the pipeline.
func (s *Sink) Deliver(b *runtime.Batch) error {
	w, ok := s.streams[b.Key]
	if !ok {
		w = newSwitchCore(s.spec, s.nameInstances, s.routes, s.defaultPort, &s.stats)
		if s.validate {
			if err := w.enableValidation(s.validateDepth, s.validatePort); err != nil {
				return err
			}
		}
		key := b.Key
		w.onRoute = func(port int, service string, message []byte) {
			if s.OnRoute != nil {
				s.OnRoute(key, port, service, message)
			}
		}
		s.streams[b.Key] = w
	}
	if len(b.Data) > 0 {
		w.feed(b.Data)
	}
	for _, m := range b.Tags {
		w.consume(m)
	}
	if b.EOS {
		w.finish() // incomplete tail counted in stats
		delete(s.streams, b.Key)
	}
	return nil
}

// Close implements runtime.Sink; the pipeline calls it after the sink's
// version delivered its last batch, so every stream has already ended.
func (s *Sink) Close() error { return nil }

// Stats returns the routing counters aggregated across all streams. Call
// after the pipeline is closed (or from the sink goroutine).
func (s *Sink) Stats() Stats { return s.stats }
