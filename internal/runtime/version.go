package runtime

import (
	"fmt"
	"sort"
)

// factoryVersion is one published generation of a pipeline's backend
// factory. Streams bind the version that is current when their backend is
// created and keep it for life: a SwapFactory never migrates a live
// stream, it only changes what new streams get. The version is retired —
// observable as EventVersionRetired — when it is no longer current
// and its last stream's final batch has been delivered, so whatever the
// factory closes over (a shared DFA cache, a router spec) is safe to tear
// down at retirement.
type factoryVersion struct {
	id      int
	factory Factory

	// streams counts live bindings. It only increases while the version is
	// current (acquire happens under verMu), so once superseded the count
	// is monotonically non-increasing and zero is final.
	streams int64 // guarded by p.verMu
	retired bool  // guarded by p.verMu
}

// SwapFactory atomically publishes f as the pipeline's backend factory and
// returns the new version's id. New streams created after SwapFactory
// returns bind f; live streams keep draining on the factory that created
// their backend, with no dropped or reordered batches. The superseded
// version is retired — EventVersionRetired fires — once its last
// stream's final batch has been delivered (immediately, when it has no
// live streams). After Close, SwapFactory fails with ErrClosed.
func (p *Pipeline) SwapFactory(f Factory) (int, error) {
	if f == nil {
		return 0, fmt.Errorf("runtime: SwapFactory with nil factory")
	}
	p.stateMu.RLock()
	defer p.stateMu.RUnlock()
	if p.closed {
		return 0, ErrClosed
	}
	p.verMu.Lock()
	old := p.curVer
	p.nextVerID++
	v := &factoryVersion{id: p.nextVerID, factory: f}
	p.curVer = v
	p.liveVers[v.id] = v
	var retiredID int
	if old != nil && old.streams == 0 && !old.retired {
		old.retired = true
		delete(p.liveVers, old.id)
		retiredID = old.id
	}
	p.verMu.Unlock()
	if retiredID != 0 {
		p.cfg.Hooks.emit(Event{Kind: EventVersionRetired, Version: retiredID})
	}
	return v.id, nil
}

// CurrentVersion reports the id of the factory version new streams bind.
// Version ids start at 1 and increase with every SwapFactory.
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
		p.cfg.Hooks.emit(Event{Kind: EventVersionRetired, Version: v.id})
	}
}
