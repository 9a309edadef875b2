package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Start and End are
// offsets from the tracer's origin; Parent is the index of the span
// that caused it (-1 for roots) and Campaign groups the spans of one
// campaign.
type span struct {
	Name     string        `json:"name"`
	Start    time.Duration `json:"start_ns"`
	End      time.Duration `json:"end_ns"`
	Parent   int           `json:"parent"`
	Campaign int64         `json:"campaign"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory; they are written out once, when the
// run ends. The zero value is unusable; use newTracer.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its index; end closes it.
func (t *tracer) begin(name string, parent int, campaign int64) int {
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Campaign: campaign})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// snapshot returns a copy of every span recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON under dir.
func (t *tracer) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

// selfTime is a span's duration minus the part of its interval that
// its children cover. Children may overlap one another (activity
// bodies run in parallel), so the covered part is the length of the
// union of their intervals clipped to the parent, never their sum.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered time.Duration
	var curLo, curHi time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			covered += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		covered += curHi - curLo
	}
	return parent.dur() - covered
}
