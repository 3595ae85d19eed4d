package harness

import (
	"fmt"
	"hash/maphash"

	"cfgtag"
	"cfgtag/internal/serve"
)

// hashSeed keys every response hash of one benchmark process: the
// oracle and the clients hash with it, so only equality is meaningful.
var hashSeed = maphash.MakeSeed()

// ExpectedText is the serial oracle: be (a fresh or Reset backend of the
// tenant's kind) tags data in ChunkBytes chunks, and the result renders in
// the serve wire format through the same serve.AppendBatchText the live
// outputs use, without a mux key prefix.
func ExpectedText(be *cfgtag.Backend, data []byte) ([]byte, int, error) {
	be.Reset()
	var tags []cfgtag.Match
	for lo := 0; lo < len(data); lo += ChunkBytes {
		if err := be.Feed(data[lo:min(lo+ChunkBytes, len(data))]); err != nil {
			return nil, 0, err
		}
		tags = append(tags, be.Matches()...)
	}
	if err := be.Close(); err != nil {
		return nil, 0, err
	}
	tags = append(tags, be.Matches()...)
	total := 0
	text := serve.AppendBatchText(nil, "", &cfgtag.TagBatch{Tags: tags, EOS: true}, &total)
	return text, total, nil
}

// runOracle fills in every body's expected response hash and tag count,
// with one serial backend per tenant of the tenant's own kind.
func runOracle(w Workload, engines []*cfgtag.Engine, bodies []Body) error {
	backends := make([]*cfgtag.Backend, len(engines))
	for i, e := range engines {
		be, err := e.NewBackend(cfgtag.BackendKind(w.Tenants[i].Backend))
		if err != nil {
			return fmt.Errorf("oracle for tenant %s: %w", w.Tenants[i].Name, err)
		}
		backends[i] = be
	}
	for i := range bodies {
		b := &bodies[i]
		text, tags, err := ExpectedText(backends[b.Tenant], b.Data)
		if err != nil {
			return fmt.Errorf("oracle for tenant %s: %w", w.Tenants[b.Tenant].Name, err)
		}
		b.Want, b.Tags = maphash.Bytes(hashSeed, text), tags
	}
	return nil
}
