package measure

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// SpanID identifies a recorded span; 0 means "no span" (a root's parent, or
// any span of a tracer that is off).
type SpanID int

// Span is one timed call into a layer: its name, the span that caused it,
// and its interval measured from the tracer's creation.
type Span struct {
	ID     SpanID        `json:"id"`
	Parent SpanID        `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Dur returns the span's duration.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Tracer keeps spans in memory until the run ends. A tracer that is off
// still times every call, so traced and untraced runs execute the same
// code; it only skips recording. Safe for concurrent use.
type Tracer struct {
	on bool
	t0 time.Time

	mu    sync.Mutex
	spans []Span
}

// NewTracer returns a tracer that records spans when on is true.
func NewTracer(on bool) *Tracer {
	return &Tracer{on: on, t0: time.Now()}
}

// On reports whether the tracer records spans.
func (t *Tracer) On() bool { return t.on }

// Timer is an open span; End closes it.
type Timer struct {
	t      *Tracer
	id     SpanID
	parent SpanID
	name   string
	start  time.Time
}

// Begin opens a span named name under parent. When the tracer records,
// the span's ID is reserved now so children can name it as their parent
// before it ends.
func (t *Tracer) Begin(name string, parent SpanID) Timer {
	tm := Timer{t: t, parent: parent, name: name}
	if t.on {
		t.mu.Lock()
		t.spans = append(t.spans, Span{})
		tm.id = SpanID(len(t.spans))
		t.mu.Unlock()
	}
	tm.start = time.Now()
	return tm
}

// BeginAt opens a span whose start is a given instant rather than now: an
// open-loop request's span starts when the request was due.
func (t *Tracer) BeginAt(name string, parent SpanID, start time.Time) Timer {
	tm := t.Begin(name, parent)
	tm.start = start
	return tm
}

// ID returns the span's identifier for use as a child's parent.
func (tm Timer) ID() SpanID { return tm.id }

// End closes the span and returns its duration.
func (tm Timer) End() time.Duration {
	end := time.Now()
	d := end.Sub(tm.start)
	if tm.id != 0 {
		t := tm.t
		t.mu.Lock()
		t.spans[tm.id-1] = Span{ID: tm.id, Parent: tm.parent, Name: tm.name,
			Start: tm.start.Sub(t.t0), End: end.Sub(t.t0)}
		t.mu.Unlock()
	}
	return d
}

// Spans returns a copy of the spans closed so far, in opening order.
// Spans still open are omitted.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.ID != 0 {
			out = append(out, s)
		}
	}
	return out
}

// WriteJSONL writes one JSON object per span.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// SelfTimes returns, per span name, the summed self time of its spans: each
// span's duration minus the part of its interval that its children cover.
// Overlapping children count once, and a child reaching outside its parent
// counts only inside it.
func SelfTimes(spans []Span) map[string]time.Duration {
	children := map[SpanID][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.Dur() - covered(s, children[s.ID])
	}
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent Span, kids []Span) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi time.Duration
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}
