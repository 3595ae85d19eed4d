// Package harness is the repository benchmark: seeded workload
// generation, the serial oracle, load generators that drive the serve
// stack over real sockets, span tracing at the layer boundaries, the
// in-process layer ladder and the metric report.
package harness

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"cfgtag"
	"cfgtag/internal/workload"
	"cfgtag/internal/xmlrpc"
)

// Load shape shared by every workload.
const (
	// ChunkBytes is the DATA frame payload of the bulk workloads and the
	// chunk size of every ladder rung.
	ChunkBytes = 4 << 10
	// bulkConns x bulkStreamsPerConn closed-loop stream slots.
	bulkConns          = 2
	bulkStreamsPerConn = 4
	// bulkBodyBytes is the size of one bulk stream; bulkPool distinct
	// bodies are cycled, so the oracle runs once per body.
	bulkBodyBytes = 128 << 10
	bulkPool      = 8
	bulkOrder     = 1024
	// sparseRun is the whitespace run between bulk-sparse messages.
	sparseRun = 16 << 10
	// churnConns keep-alive HTTP connections carry the open loop;
	// churnPool distinct bodies per tenant.
	churnConns = 2
	churnPool  = 512
	// ChurnRate is the churn-mixed arrival rate in streams per second,
	// about half the closed-loop capacity measured on a 2-core host.
	ChurnRate = 3000
	// reloadEvery is the period of the rpc tenant's Platform.Reloads in
	// the churn-mixed measured window.
	reloadEvery = 10 * time.Second
)

// Workload is one traffic mix against the serve stack.
type Workload struct {
	Name string
	// Tenants is the system under test's platform config.
	Tenants []cfgtag.TenantDef
	// Open selects the open-loop HTTP generator; otherwise the closed
	// loop over CFGTAG/1 mux connections drives the first tenant.
	Open bool
	// SLO is the latency limit behind within_slo_frac.
	SLO time.Duration
	// Warmup runs before the measured window, unmeasured.
	Warmup time.Duration
	body   func(rng *rand.Rand, gens *generators, tenant int) []byte
}

// rpcTenant is xmlrpc.y on the ahead-of-time tables, the dense hot path.
func rpcTenant() cfgtag.TenantDef {
	return cfgtag.TenantDef{
		Name:        "rpc",
		GrammarFile: "grammars/xmlrpc.y",
		Options:     []string{"free-running-start"},
		Backend:     "aot",
		Shards:      2,
		Queue:       256,
	}
}

// nlTenant is english.y on the lazy DFA, whose cache the churn warms.
func nlTenant() cfgtag.TenantDef {
	return cfgtag.TenantDef{
		Name:        "nl",
		GrammarFile: "grammars/english.y",
		Options:     []string{"free-running-start"},
		Backend:     "dfa",
		Shards:      2,
		Queue:       256,
	}
}

// Workloads lists every workload in BENCHMARK.json order.
var Workloads = []Workload{
	{
		Name:    "bulk-dense",
		Tenants: []cfgtag.TenantDef{rpcTenant()},
		SLO:     2 * time.Second,
		Warmup:  500 * time.Millisecond,
		body: func(_ *rand.Rand, g *generators, _ int) []byte {
			var b []byte
			for len(b) < bulkBodyBytes {
				m, _ := g.rpc.Message()
				b = append(append(b, m...), '\n')
			}
			return b
		},
	},
	{
		Name:    "bulk-sparse",
		Tenants: []cfgtag.TenantDef{rpcTenant()},
		SLO:     2 * time.Second,
		Warmup:  500 * time.Millisecond,
		body: func(_ *rand.Rand, g *generators, _ int) []byte {
			var b []byte
			for len(b) < bulkBodyBytes {
				m, _ := g.rpc.Message()
				b = append(b, m...)
				b = append(b, strings.Repeat(" ", sparseRun)...)
			}
			return b
		},
	},
	{
		Name:    "churn-mixed",
		Tenants: []cfgtag.TenantDef{rpcTenant(), nlTenant()},
		Open:    true,
		SLO:     10 * time.Millisecond,
		Warmup:  time.Second,
		body: func(rng *rand.Rand, g *generators, tenant int) []byte {
			var b []byte
			for i, n := 0, 1+rng.Intn(4); i < n; i++ {
				if i > 0 {
					b = append(b, '\n')
				}
				if tenant == 0 {
					m, _ := g.rpc.Message()
					b = append(b, m...)
				} else {
					s, _ := g.nl.Sentence()
					b = append(b, s...)
				}
			}
			return b
		},
	},
}

// Lookup finds a workload by name.
func Lookup(name string) (Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(Workloads))
	for i, w := range Workloads {
		names[i] = w.Name
	}
	return Workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

var optionByName = map[string]cfgtag.Option{"free-running-start": cfgtag.FreeRunningStart()}

// Compile builds one engine per tenant from the tenant's grammar file
// and options, as the platform does; paths are relative to the module
// root, the benchmark's working directory.
func Compile(w Workload) ([]*cfgtag.Engine, error) {
	engines := make([]*cfgtag.Engine, len(w.Tenants))
	for i, t := range w.Tenants {
		src, err := os.ReadFile(t.GrammarFile)
		if err != nil {
			return nil, err
		}
		var opts []cfgtag.Option
		for _, name := range t.Options {
			o, ok := optionByName[name]
			if !ok {
				return nil, fmt.Errorf("tenant %s: option %q unknown to the oracle", t.Name, name)
			}
			opts = append(opts, o)
		}
		if engines[i], err = cfgtag.Compile(t.Name, string(src), opts...); err != nil {
			return nil, fmt.Errorf("tenant %s: %w", t.Name, err)
		}
	}
	return engines, nil
}

// Body is one distinct stream payload and the oracle's verdict on it.
type Body struct {
	Tenant int // index into Workload.Tenants
	Data   []byte
	Want   uint64 // hash of the expected response text
	Tags   int    // TAG lines in the expected response
}

// Arrival is one open-loop stream: due at Due after the schedule start.
type Arrival struct {
	Due  time.Duration
	Body int
}

// Inputs is everything a run sends, generated from the seed alone.
type Inputs struct {
	Bodies []Body
	// Order is the closed loop's body sequence: stream n carries
	// Bodies[Order[n%len(Order)]].
	Order []int
	// Arrivals is the open-loop schedule, warmup included, and Measured
	// the part of it that is measured.
	Arrivals []Arrival
	Measured [2]time.Duration
	// Reloads are the schedule offsets of the rpc tenant's reloads.
	Reloads []time.Duration
	// Digest identifies the generated bytes and schedule.
	Digest string
}

type generators struct {
	rpc *xmlrpc.Generator
	nl  *workload.Generator
}

// Generate builds the inputs of one run from the seed: the body pool, the
// closed-loop order, and the open-loop schedule over warmup + window at
// rate arrivals per second. Every body is run through the serial oracle.
func Generate(w Workload, engines []*cfgtag.Engine, seed int64, window time.Duration, rate float64) (*Inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	gens := &generators{rpc: xmlrpc.NewGenerator(rng.Int63(), xmlrpc.Options{})}
	if len(engines) > 1 {
		gens.nl = workload.NewGenerator(engines[1].Spec(), rng.Int63(), workload.SentenceOptions{})
	}
	in := &Inputs{}
	pool := bulkPool
	if w.Open {
		pool = churnPool
	}
	for t := range w.Tenants {
		for i := 0; i < pool; i++ {
			in.Bodies = append(in.Bodies, Body{Tenant: t, Data: w.body(rng, gens, t)})
		}
	}
	if w.Open {
		end := w.Warmup + window
		in.Measured = [2]time.Duration{w.Warmup, end}
		for at := time.Duration(0); ; {
			at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
			if at >= end {
				break
			}
			t := rng.Intn(len(w.Tenants))
			in.Arrivals = append(in.Arrivals, Arrival{Due: at, Body: t*pool + rng.Intn(pool)})
		}
		for at := w.Warmup + reloadEvery/2; at < end; at += reloadEvery {
			in.Reloads = append(in.Reloads, at)
		}
	} else {
		in.Order = make([]int, bulkOrder)
		for i := range in.Order {
			in.Order[i] = rng.Intn(len(in.Bodies))
		}
	}
	if err := runOracle(w, engines, in.Bodies); err != nil {
		return nil, err
	}
	in.Digest = in.digest(w.Name, seed)
	return in, nil
}

// digest hashes the workload name, seed, every body and the schedule.
func (in *Inputs) digest(name string, seed int64) string {
	h := sha256.New()
	var n [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(n[:], uint64(v))
		h.Write(n[:])
	}
	h.Write([]byte(name))
	put(seed)
	for _, b := range in.Bodies {
		put(int64(b.Tenant))
		put(int64(len(b.Data)))
		h.Write(b.Data)
	}
	for _, o := range in.Order {
		put(int64(o))
	}
	for _, a := range in.Arrivals {
		put(int64(a.Due))
		put(int64(a.Body))
	}
	for _, r := range in.Reloads {
		put(int64(r))
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}
