package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Span is one timed call the benchmark made into a layer: its name, its
// interval in nanoseconds since the trace epoch, the span that caused it
// (0 = a root) and the op it belongs to.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Recorder keeps spans in memory. One Recorder belongs to one goroutine;
// the recorders of concurrent clients are merged when the run ends. A nil
// Recorder records nothing, so untraced ops pay only a nil check.
type Recorder struct {
	epoch time.Time
	base  int
	spans []Span
}

func newRecorder(epoch time.Time, base int) *Recorder {
	return &Recorder{epoch: epoch, base: base}
}

// Start opens a span and returns its ID (0 on a nil Recorder).
func (r *Recorder) Start(parent int, op int64, name string) int {
	if r == nil {
		return 0
	}
	id := r.base + len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Op: op, Name: name,
		Start: int64(time.Since(r.epoch))})
	return id
}

// End closes span id.
func (r *Recorder) End(id int) {
	if r == nil || id == 0 {
		return
	}
	r.spans[id-r.base-1].End = int64(time.Since(r.epoch))
}

// Do runs fn inside a span and returns its duration.
func (r *Recorder) Do(parent int, op int64, name string, fn func(id int)) time.Duration {
	t0 := time.Now()
	id := r.Start(parent, op, name)
	fn(id)
	r.End(id)
	return time.Since(t0)
}

// Spans returns the recorded spans.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	return r.spans
}

// checkNesting reports the first span that is unclosed, ends before it
// starts, or lies outside its parent's interval.
func checkNesting(spans []Span) error {
	byID := make(map[int]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d %s ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %d %s has unknown parent %d", s.ID, s.Name, s.Parent)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d %s [%d,%d] escapes parent %d %s [%d,%d]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
	}
	return nil
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children (overlapping children counted once).
func selfTimes(spans []Span) map[int]int64 {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var covered, hi int64 = 0, s.Start
		for _, c := range iv {
			lo, end := max(c[0], hi), min(c[1], s.End)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// selfRow is one line of the self-time table.
type selfRow struct {
	name          string
	count         int
	totalMS, self float64
}

// selfTable aggregates span durations and self times by span name.
func selfTable(spans []Span) []selfRow {
	self := selfTimes(spans)
	rows := map[string]*selfRow{}
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &selfRow{name: s.Name}
			rows[s.Name] = r
		}
		r.count++
		r.totalMS += float64(s.End-s.Start) / 1e6
		r.self += float64(self[s.ID]) / 1e6
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

func writeSelfTable(w io.Writer, spans []Span) {
	fmt.Fprintf(w, "%-34s %7s %11s %11s\n", "span", "count", "total_ms", "self_ms")
	for _, r := range selfTable(spans) {
		fmt.Fprintf(w, "%-34s %7d %11.3f %11.3f\n", r.name, r.count, r.totalMS, r.self)
	}
}

// writeSpans writes spans as JSON lines to path, creating its directory.
func writeSpans(path string, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
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
