package main

import (
	"sort"
	"sync"
	"time"
)

// span is one traced call into a layer: its name, its interval as
// offsets from the recorder's origin, the span that caused it (an
// index into the same track, -1 for a root), the node or request it
// belongs to, and the units of work it covered (windows for a step
// span, 1 otherwise).
type span struct {
	name       string
	start, end time.Duration
	parent     int32
	id         uint64
	units      int64
}

// recorder keeps spans in memory until the traced pass ends. Each
// goroutine records into its own track, so recording never takes a
// lock; tracks are only read after every writer has finished.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	tracks []*track
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// track returns a new span buffer owned by one goroutine.
func (r *recorder) track() *track {
	t := &track{rec: r}
	r.mu.Lock()
	r.tracks = append(r.tracks, t)
	r.mu.Unlock()
	return t
}

type track struct {
	rec   *recorder
	spans []span
	open  []int32
}

// begin opens a span under the innermost open span of this track and
// returns its handle for end.
func (t *track) begin(name string, id uint64) int32 {
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.rec.origin), parent: parent, id: id, units: 1})
	i := int32(len(t.spans) - 1)
	t.open = append(t.open, i)
	return i
}

// end closes span i, crediting it with units of work.
func (t *track) end(i int32, units int64) {
	t.spans[i].end = time.Since(t.rec.origin)
	t.spans[i].units = units
	t.open = t.open[:len(t.open)-1]
}

// do records fn as one span.
func (t *track) do(name string, id uint64, fn func() error) error {
	i := t.begin(name, id)
	err := fn()
	t.end(i, 1)
	return err
}

// layerStat aggregates a layer's spans: how many, the work units they
// covered, their summed duration (busy) and their summed self time.
type layerStat struct {
	count, units int64
	busy, self   time.Duration
}

// layers folds every track's spans into per-name statistics.
func (r *recorder) layers() map[string]*layerStat {
	out := make(map[string]*layerStat)
	for _, t := range r.tracks {
		self := selfTimes(t.spans)
		for i, s := range t.spans {
			st := out[s.name]
			if st == nil {
				st = &layerStat{}
				out[s.name] = st
			}
			st.count++
			st.units += s.units
			st.busy += s.end - s.start
			st.self += self[i]
		}
	}
	return out
}

// selfTimes returns each span's duration minus the part of its
// interval its children cover. Children may nest, overlap each other
// or stick out of the parent; only the union of their intervals,
// clipped to the parent, is subtracted, so no time is subtracted
// twice and self time is never negative.
func selfTimes(spans []span) []time.Duration {
	type iv struct{ lo, hi time.Duration }
	children := make(map[int32][]iv)
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], iv{s.start, s.end})
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start
		kids := children[int32(i)]
		sort.Slice(kids, func(a, b int) bool { return kids[a].lo < kids[b].lo })
		covered, reach := time.Duration(0), s.start
		for _, k := range kids {
			lo, hi := max(k.lo, reach), min(k.hi, s.end)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] -= covered
	}
	return self
}
