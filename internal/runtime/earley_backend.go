package runtime

import (
	"errors"
	"fmt"
	"sort"

	"cfgtag/internal/core"
	"cfgtag/internal/earley"
	"cfgtag/internal/stream"
)

// earleyBackend adapts the general-CFG Earley oracle. Like the parser path
// it recognizes the grammar exactly — one stream must be one sentence — so
// it buffers the stream and recognizes at Close, reporting non-conforming
// input as the Close error. Unlike the parser path it handles every
// grammar class (left/right recursion, ambiguity, ambiguous lexicons) and
// on ambiguous input reports the union of tags over all derivations.
// Matches become available only after a successful Close.
type earleyBackend struct {
	sentenceBuf
	rec *earley.Recognizer
}

// buildEarley compiles the recognizer once and shares it (it is
// immutable and safe for concurrent use); each Backend carries only its
// input buffer. It fails for spec options with no exact-language
// counterpart (FreeRunningStart, AllEnabled, recovery modes).
// MaxBufferBytes caps the whole-sentence buffer, MaxChartItems and
// MaxWorkPerByte bound the Close-time recognition's chart and worklist
// (see earley.Config), and Limits.Mem is charged with the buffer capacity
// and the live chart estimate while the stream runs. Every trip surfaces
// as an error wrapping ErrResourceExhausted, ending only the offending
// stream.
func buildEarley(spec *core.Spec, o BuildOptions, _ *charge) (Built, error) {
	lim := o.Limits
	rec, err := earley.NewWithConfig(spec, earley.Config{
		MaxChartItems:  lim.MaxChartItems,
		MaxWorkPerByte: lim.MaxWorkPerByte,
		MemDelta:       lim.Mem.Delta(),
	})
	if err != nil {
		return Built{}, err
	}
	return Built{Factory: func(int, *Hooks) (Backend, error) {
		return &earleyBackend{sentenceBuf: sentenceBuf{spec: spec, lim: lim}, rec: rec}, nil
	}}, nil
}

func (b *earleyBackend) Close() error {
	if b.closed {
		return nil
	}
	b.closed = true
	tags, err := b.rec.Tags(b.buf)
	if err != nil {
		if errors.Is(err, earley.ErrBudget) {
			// The chart outgrew its per-stream budget: surface the
			// pipeline's typed verdict so the stream is quarantined and
			// counted, keeping earley's sentinel as detail.
			return fmt.Errorf("%w: %v", ErrResourceExhausted, err)
		}
		return err
	}
	for _, tag := range tags {
		in := b.spec.InstanceAt(tag.Rule, tag.Pos)
		if in == nil {
			// Cannot happen for a recognizer built from this spec.
			panic("runtime: earley tag with no spec instance")
		}
		b.pending = append(b.pending, stream.Match{InstanceID: in.ID, End: int64(tag.End)})
	}
	// Distinct derivation tags can project onto one (instance, end) pair —
	// ambiguous parses sharing a lexeme, or NoContextDuplication folding
	// occurrences — so order and deduplicate at the match level.
	sort.Slice(b.pending, func(i, j int) bool {
		a, c := b.pending[i], b.pending[j]
		if a.End != c.End {
			return a.End < c.End
		}
		return a.InstanceID < c.InstanceID
	})
	dedup := b.pending[:0]
	for _, m := range b.pending {
		if n := len(dedup); n > 0 && m == dedup[n-1] {
			continue
		}
		dedup = append(dedup, m)
	}
	b.pending = dedup
	b.matches += int64(len(dedup))
	return nil
}
