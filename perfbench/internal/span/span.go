// Package span records trace spans in memory — name, start, end,
// parent and request id — and writes them out when a run ends. Self
// time is a span's duration minus the part of it its children cover.
package span

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one recorded interval. Units counts the work it covered
// (items, comments, requests) so self time converts to time per unit.
type Span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Request int64  `json:"request"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Units   int64  `json:"units"`
}

// Recorder keeps spans in memory. It is safe for concurrent use.
type Recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

// NewRecorder returns an empty recorder whose times count from now.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Open is a started span; End records it.
type Open struct {
	r *Recorder
	s Span
}

// Start opens a span under parent (0 for a root).
func (r *Recorder) Start(name string, parent int, request int64) *Open {
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name, Request: request, Start: -1})
	r.mu.Unlock()
	return &Open{r: r, s: Span{ID: id, Parent: parent, Name: name, Request: request, Start: int64(time.Since(r.epoch))}}
}

// ID is the span's id, the parent of spans started under it.
func (o *Open) ID() int { return o.s.ID }

// End closes the span, crediting it with units of work.
func (o *Open) End(units int64) {
	o.s.End = int64(time.Since(o.r.epoch))
	o.s.Units = units
	o.r.mu.Lock()
	o.r.spans[o.s.ID-1] = o.s
	o.r.mu.Unlock()
}

// Total is a span name's summed self time and units.
type Total struct {
	Self  time.Duration
	Units int64
}

// PerUnit is self time per unit of work, in the given unit of time.
func (t Total) PerUnit(unit time.Duration) float64 {
	if t.Units == 0 {
		return 0
	}
	return float64(t.Self) / float64(unit) / float64(t.Units)
}

// Totals sums self time and units by span name over closed spans.
// Children that overlap each other (concurrent callers) are merged
// before their cover is subtracted from the parent.
func (r *Recorder) Totals() map[string]Total {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int][][2]int64{}
	for _, s := range r.spans {
		if s.Start >= 0 && s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]Total{}
	for _, s := range r.spans {
		if s.Start < 0 {
			continue
		}
		self := s.End - s.Start - covered(children[s.ID], s.Start, s.End)
		t := out[s.Name]
		t.Self += time.Duration(self)
		t.Units += s.Units
		out[s.Name] = t
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, end int64 = 0, lo
	for _, iv := range ivs {
		s, e := max(iv[0], end), min(iv[1], hi)
		if e > s {
			total += e - s
			end = e
		}
	}
	return total
}

// WriteFile writes every closed span as JSONL.
func (r *Recorder) WriteFile(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range r.spans {
		if s.Start < 0 {
			continue
		}
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
