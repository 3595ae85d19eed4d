package runtime

import (
	"fmt"
	"sort"
)

// factoryVersion is one published generation of a pipeline's backend
// factory together with the sink that consumes what it tags. Streams bind
// the version that is current when their backend is created and keep it
// for life: a Swap never migrates a live stream, it only changes what new
// streams get. Every batch goes to its stream's version's sink. The
// version is retired — observable as EventVersionRetired — when it is no
// longer current and its last stream's final batch has been delivered;
// its sink is closed then, so whatever the factory or the sink closes
// over (a shared DFA cache, a router spec, a memory charge) is safe to
// tear down in Sink.Close.
type factoryVersion struct {
	id      int
	factory Factory
	sink    Sink

	// streams counts live bindings. It only increases while the version is
	// current (acquire happens under verMu), so once superseded the count
	// is monotonically non-increasing and zero is final.
	streams int64 // guarded by p.verMu
	retired bool  // guarded by p.verMu
}

// Swap atomically publishes f as the pipeline's backend factory, with s
// as the sink for the batches its streams produce, and returns the new
// version's id. New streams created after Swap returns bind f and deliver
// to s; live streams keep draining on the factory that created their
// backend, into that version's sink, with no dropped or reordered batches.
// Each version's sink is closed exactly once, after its last batch: when
// the superseded version retires (immediately, when it has no live
// streams), or at Close for the current version. One Sink value may serve
// several versions; it is then closed once per version. After Close, Swap
// fails with ErrClosed; on any error s is not adopted and stays the
// caller's to close.
func (p *Pipeline) Swap(f Factory, s Sink) (int, error) {
	if f == nil || s == nil {
		return 0, fmt.Errorf("runtime: Swap needs a factory and a sink")
	}
	p.stateMu.RLock()
	defer p.stateMu.RUnlock()
	if p.closed {
		return 0, ErrClosed
	}
	p.verMu.Lock()
	old := p.curVer
	p.nextVerID++
	v := &factoryVersion{id: p.nextVerID, factory: f, sink: s}
	p.curVer = v
	p.liveVers[v.id] = v
	retire := old.streams == 0
	if retire {
		old.retired = true
		delete(p.liveVers, old.id)
	}
	p.verMu.Unlock()
	if retire {
		p.retire(old)
	}
	return v.id, nil
}

// CurrentVersion reports the id of the factory version new streams bind.
// Version ids start at 1 and increase with every Swap.
func (p *Pipeline) CurrentVersion() int {
	p.verMu.Lock()
	defer p.verMu.Unlock()
	return p.curVer.id
}

// LiveVersions reports the ids of the factory versions not yet retired —
// the current version plus any superseded versions still draining live
// streams — in ascending order. A stable length-1 result after a reload
// proves the old version was fully retired (no factory leak).
func (p *Pipeline) LiveVersions() []int {
	p.verMu.Lock()
	ids := make([]int, 0, len(p.liveVers))
	for id := range p.liveVers {
		ids = append(ids, id)
	}
	p.verMu.Unlock()
	sort.Ints(ids)
	return ids
}

// acquireVersion binds one new stream to the current version.
func (p *Pipeline) acquireVersion() *factoryVersion {
	p.verMu.Lock()
	v := p.curVer
	v.streams++
	p.verMu.Unlock()
	return v
}

// releaseVersion drops one stream binding, retiring the version when it is
// superseded and this was its last stream. Called by the sink worker after
// the stream's final batch is delivered (or dead-lettered, or dropped on a
// failed sink) — never earlier, so per-version resources outlive every
// batch that references them.
func (p *Pipeline) releaseVersion(v *factoryVersion) {
	p.verMu.Lock()
	v.streams--
	retire := v.streams == 0 && v != p.curVer && !v.retired
	if retire {
		v.retired = true
		delete(p.liveVers, v.id)
	}
	p.verMu.Unlock()
	if retire {
		p.retire(v)
	}
}

// retire closes a superseded version's sink and announces the retirement.
func (p *Pipeline) retire(v *factoryVersion) {
	p.closeSink(v)
	p.cfg.Hooks.emit(Event{Kind: EventVersionRetired, Version: v.id})
}

// closeSink closes one version's sink, keeping the first Close error for
// Pipeline.Close to return.
func (p *Pipeline) closeSink(v *factoryVersion) {
	if err := v.sink.Close(); err != nil {
		p.errMu.Lock()
		if p.closeErr == nil {
			p.closeErr = err
		}
		p.errMu.Unlock()
	}
}
