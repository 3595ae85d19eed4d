// Package router implements the back-end processor of section 4: the
// XML-RPC content-based message router of figure 12. It consumes the tag
// stream of a tagger running the figure 14 grammar, recovers the service
// name from the STRING detection inside the methodName production, and
// switches each complete message to the output port registered for that
// service (bank or shopping server in the paper's example).
//
// Two front ends drive the same switching core: Router couples it to its
// own inline tagger (one stream, io.Writer-style), and Sink plugs it into
// the sharded runtime pipeline as the batch consumer (many streams, tags
// computed upstream by any Backend). A Sink decodes one spec; a grammar
// reload publishes a new Sink with the new factory version, and the
// pipeline hands each stream's batches to its own version's Sink.
package router

import (
	"fmt"

	"cfgtag/internal/core"
	"cfgtag/internal/grammar"
	"cfgtag/internal/stream"
	"cfgtag/internal/validate"
)

// Route binds a service name to an output port.
type Route struct {
	Service string
	Port    int
}

// Stats counts routing outcomes.
type Stats struct {
	// Messages is the number of complete messages seen.
	Messages int
	// PerPort counts messages delivered to each port.
	PerPort map[int]int
	// Unknown counts messages whose service had no route (delivered to
	// the default port).
	Unknown int
	// Invalid counts messages diverted by validation (EnableValidation).
	Invalid int
	// Incomplete counts streams that ended mid-message.
	Incomplete int
}

// switchCore is the tagger-independent switching state machine: it buffers
// stream bytes, consumes the tag stream over them, recovers the service
// name and flushes complete messages to onRoute. One switchCore serves one
// stream; Router and Sink wrap it.
type switchCore struct {
	spec *core.Spec

	nameInstances map[int]bool // service-name instance IDs
	routes        map[string]int
	defaultPort   int

	onRoute func(port int, service string, message []byte)

	buf     []byte
	bufBase int64 // absolute offset of buf[0]
	service string
	hasSvc  bool
	stats   *Stats

	// validation (optional): the section 5.2 stack extension audits each
	// message; ones with nesting violations divert to invalidPort.
	validator    *validate.Validator
	invalidPort  int
	msgViolation bool
}

// resolveNameInstances finds the class-terminal instances inside the named
// production — the detections that carry the service name.
func resolveNameInstances(spec *core.Spec, nameProduction string) (map[int]bool, error) {
	g := spec.Grammar
	ids := make(map[int]bool)
	for _, in := range spec.Instances {
		if in.Rule >= 0 && g.Rules[in.Rule].LHS == nameProduction && !g.Tokens[in.TokenIndex].Literal {
			ids[in.ID] = true
		}
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("router: production %q has no class terminal to use as the service name", nameProduction)
	}
	return ids, nil
}

func buildRouteTable(routes []Route) (map[string]int, error) {
	table := make(map[string]int, len(routes))
	for _, rt := range routes {
		if _, dup := table[rt.Service]; dup {
			return nil, fmt.Errorf("router: duplicate route for service %q", rt.Service)
		}
		table[rt.Service] = rt.Port
	}
	return table, nil
}

func newSwitchCore(spec *core.Spec, nameInstances map[int]bool, routes map[string]int, defaultPort int, stats *Stats) *switchCore {
	return &switchCore{
		spec:          spec,
		nameInstances: nameInstances,
		routes:        routes,
		defaultPort:   defaultPort,
		stats:         stats,
	}
}

// enableValidation attaches a per-stream stack validator.
func (w *switchCore) enableValidation(maxDepth, invalidPort int) error {
	v, err := validate.New(w.spec, maxDepth)
	if err != nil {
		return err
	}
	v.OnViolation = func(*validate.Violation) { w.msgViolation = true }
	w.validator = v
	w.invalidPort = invalidPort
	return nil
}

// feed appends stream bytes to the message buffer.
func (w *switchCore) feed(p []byte) {
	w.buf = append(w.buf, p...)
}

// consume processes one detection over the fed bytes.
func (w *switchCore) consume(m stream.Match) {
	in := w.spec.Instances[m.InstanceID]
	if w.validator != nil {
		w.validator.Consume(m)
	}
	if w.nameInstances[m.InstanceID] {
		w.service, w.hasSvc = w.recoverLexeme(m), true
	}
	if in.CanEnd {
		w.flush(m.End)
	}
}

// finish reports leftover unrouted bytes (an incomplete final message).
func (w *switchCore) finish() error {
	for _, b := range w.buf {
		if !w.spec.Delim.Has(b) {
			w.stats.Incomplete++
			return fmt.Errorf("router: %d bytes of incomplete message at stream end", len(w.buf))
		}
	}
	return nil
}

// recoverLexeme extracts the service name text: the hardware reports only
// the end offset, so the longest suffix of the buffer matching the token
// pattern (ending there) is the lexeme.
func (w *switchCore) recoverLexeme(m stream.Match) string {
	in := w.spec.Instances[m.InstanceID]
	end := int(m.End-w.bufBase) + 1
	n := in.Program.LongestSuffix(w.buf[:end])
	if n <= 0 {
		return ""
	}
	return string(w.buf[end-n : end])
}

// flush emits the message ending at absolute offset end.
func (w *switchCore) flush(end int64) {
	cut := int(end-w.bufBase) + 1
	msg := w.buf[:cut]
	// Trim leading delimiters left over from the inter-message gap.
	start := 0
	for start < len(msg) && w.spec.Delim.Has(msg[start]) {
		start++
	}
	msg = msg[start:]

	port, ok := w.routes[w.service]
	if !ok || !w.hasSvc {
		port = w.defaultPort
		w.stats.Unknown++
	}
	if w.msgViolation {
		port = w.invalidPort
		w.stats.Invalid++
		w.msgViolation = false
	}
	w.stats.Messages++
	w.stats.PerPort[port]++
	if w.onRoute != nil {
		w.onRoute(port, w.service, msg)
	}
	w.buf = append(w.buf[:0], w.buf[cut:]...)
	w.bufBase += int64(cut)
	w.service, w.hasSvc = "", false
}

// Router is a streaming content-based switch over one stream, driving its
// own inline tagger. Not safe for concurrent use.
type Router struct {
	spec   *core.Spec
	tagger *stream.Tagger
	core   *switchCore
	stats  Stats

	// OnRoute receives every completed message with its resolved port and
	// service. The message slice is only valid during the call.
	OnRoute func(port int, service string, message []byte)
}

// New builds a router over the figure 14 grammar. defaultPort receives
// messages with unrouted services.
func New(routes []Route, defaultPort int) (*Router, error) {
	return NewWithGrammar(grammar.XMLRPC(), "methodName", routes, defaultPort)
}

// NewWithGrammar builds a router for any grammar: the service name is the
// lexeme of the terminal detected inside the named production (the paper's
// methodName). The grammar's spec is compiled with FreeRunningStart so a
// long-lived stream routes message after message.
func NewWithGrammar(g *grammar.Grammar, nameProduction string, routes []Route, defaultPort int) (*Router, error) {
	spec, err := core.Compile(g, core.Options{FreeRunningStart: true})
	if err != nil {
		return nil, err
	}
	names, err := resolveNameInstances(spec, nameProduction)
	if err != nil {
		return nil, err
	}
	table, err := buildRouteTable(routes)
	if err != nil {
		return nil, err
	}
	r := &Router{spec: spec}
	r.stats.PerPort = make(map[int]int)
	r.core = newSwitchCore(spec, names, table, defaultPort, &r.stats)
	r.core.onRoute = func(port int, service string, message []byte) {
		if r.OnRoute != nil {
			r.OnRoute(port, service, message)
		}
	}
	r.tagger = stream.NewTagger(spec)
	r.tagger.OnMatch = r.core.consume
	return r, nil
}

// Spec exposes the compiled spec (for tests and instrumentation).
func (r *Router) Spec() *core.Spec { return r.spec }

// EnableValidation attaches the section 5.2 stack extension: every
// message's tag stream is audited by a bounded LL(1) stack machine
// (maxDepth 0 = 4096), and messages with nesting violations — which the
// stack-less engine happily tags — divert to invalidPort instead of their
// service's port. Must be called before Write; the grammar must be LL(1).
func (r *Router) EnableValidation(maxDepth, invalidPort int) error {
	return r.core.enableValidation(maxDepth, invalidPort)
}

// Write feeds stream bytes; complete messages fire OnRoute inline.
func (r *Router) Write(p []byte) (int, error) {
	r.core.feed(p)
	return r.tagger.Write(p)
}

// Close flushes the trailing byte and reports leftover unrouted bytes (an
// incomplete final message) as an error.
func (r *Router) Close() error {
	if err := r.tagger.Close(); err != nil {
		return err
	}
	return r.core.finish()
}

// Stats returns routing counters.
func (r *Router) Stats() Stats { return r.stats }

// FigureTwelve returns the paper's route table: deposit/withdraw/acctinfo
// to port 0 (bank), buy/sell/price to port 1 (shopping).
func FigureTwelve() []Route {
	return []Route{
		{Service: "deposit", Port: 0},
		{Service: "withdraw", Port: 0},
		{Service: "acctinfo", Port: 0},
		{Service: "buy", Port: 1},
		{Service: "sell", Port: 1},
		{Service: "price", Port: 1},
	}
}
