package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// Tracing. The traced run records a span around each call the benchmark
// makes into a layer: its name ("<layer>.<call>"), start, end, parent and
// batch id. Each goroutine appends to its own spanBuf, so recording takes
// no lock; the buffers stay in memory and are written out when the run
// ends. A nil *spanBuf records nothing, which is how untraced code paths
// share the traced ones.

// span is one recorded interval. Times are nanoseconds since the trace's
// epoch; parent indexes the same buffer (-1 for a root span).
type span struct {
	name       string
	start, end int64
	parent     int32
	batch      int64
}

// tracer owns the per-goroutine span buffers of one traced run.
type tracer struct {
	epoch time.Time
	bufs  []*spanBuf
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// buf returns a new span buffer with room for capHint spans. It is called
// before the goroutine that fills the buffer starts.
func (t *tracer) buf(capHint int) *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{epoch: t.epoch, spans: make([]span, 0, capHint)}
	t.bufs = append(t.bufs, b)
	return b
}

// spanBuf is one goroutine's span buffer.
type spanBuf struct {
	epoch time.Time
	spans []span
}

// begin opens a span and returns its index, to pass to end and to use as
// the parent of nested spans.
func (b *spanBuf) begin(name string, parent int32, batch int64) int32 {
	if b == nil {
		return -1
	}
	b.spans = append(b.spans, span{name: name, start: int64(time.Since(b.epoch)), parent: parent, batch: batch})
	return int32(len(b.spans) - 1)
}

// end closes span i.
func (b *spanBuf) end(i int32) {
	if b == nil {
		return
	}
	b.spans[i].end = int64(time.Since(b.epoch))
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	count int
	total int64 // summed durations, ns
	self  int64 // summed self times, ns
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of its interval covered by the union of its children's
// intervals.
func selfTimes(spans []span) map[string]layerTime {
	children := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	out := make(map[string]layerTime)
	for i, s := range spans {
		dur := s.end - s.start
		lt := out[s.name]
		lt.count++
		lt.total += dur
		lt.self += dur - covered(children[int32(i)], s.start, s.end)
		out[s.name] = lt
	}
	return out
}

// covered returns how much of [lo, hi) the union of ivs covers. ivs is
// sorted in place.
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum int64
	cur := lo // everything before cur is already counted
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			sum += e - s
			cur = e
		}
	}
	return sum
}

// merged returns the self-time aggregate over every buffer.
func (t *tracer) merged() map[string]layerTime {
	out := make(map[string]layerTime)
	for _, b := range t.bufs {
		for name, lt := range selfTimes(b.spans) {
			agg := out[name]
			agg.count += lt.count
			agg.total += lt.total
			agg.self += lt.self
			out[name] = agg
		}
	}
	return out
}

// layerOf returns the layer a span name belongs to: the part before the
// first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// write writes every span as a tab-separated line: id, parent id (-1 for
// none), goroutine, batch, name, start and end in ns since the epoch.
func (t *tracer) write(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tgoroutine\tbatch\tname\tstart_ns\tend_ns")
	base := 0
	for g, b := range t.bufs {
		for i, s := range b.spans {
			parent := -1
			if s.parent >= 0 {
				parent = base + int(s.parent)
			}
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%s\t%d\t%d\n", base+i, parent, g, s.batch, s.name, s.start, s.end)
		}
		base += len(b.spans)
	}
	return w.Flush()
}
