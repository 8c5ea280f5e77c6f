package main

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"
	"syscall"
	"time"

	"valois/internal/client"
	"valois/internal/proto"
)

// Wire shape: one generator process, conns connections, RESP, batches of
// depth commands. The loop is closed: a connection sends its next batch
// only after every reply of the previous one has arrived.
const (
	conns      = 2
	depth      = 48
	shards     = 16  // valoisd -shards; the replay uses the same shard function
	sweepDepth = 256 // batch size of the untimed prefill and sweeps

	// failedRTTus is the round trip recorded for a batch that failed:
	// an hour, slower than any latency limit.
	failedRTTus = 3.6e9
)

func dial(addr string) ([]*client.Client, error) {
	cs := make([]*client.Client, 0, conns)
	for i := 0; i < conns; i++ {
		// No retries: a transport error is a failure to report, not to
		// hide behind a second attempt.
		c, err := client.Dial(addr, client.Options{Protocol: proto.ProtocolRESP, Retries: -1, OpTimeout: 30 * time.Second})
		if err != nil {
			closeAll(cs)
			return nil, err
		}
		cs = append(cs, c)
	}
	return cs, nil
}

func closeAll(cs []*client.Client) {
	for _, c := range cs {
		_ = c.Close() // the run is over; a failed QUIT changes nothing
	}
}

// prefill SETs every key, splitting the keyspace across the connections.
func prefill(cs []*client.Client, ks *keyspace) error {
	errs := make([]error, len(cs))
	var wg sync.WaitGroup
	for g, c := range cs {
		wg.Add(1)
		go func(g int, c *client.Client) {
			defer wg.Done()
			var b client.Batch
			var res []client.Result
			for lo := g * sweepDepth; lo < len(ks.keys); lo += len(cs) * sweepDepth {
				b.Reset()
				for i := lo; i < min(lo+sweepDepth, len(ks.keys)); i++ {
					b.Set(ks.keys[i], ks.vals[i])
				}
				var err error
				if res, err = c.DoInto(&b, res[:0]); err != nil {
					errs[g] = fmt.Errorf("prefill: %w", err)
					return
				}
			}
		}(g, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// stats fetches STATS as integers (non-numeric lines are skipped).
func stats(c *client.Client) (map[string]int64, error) {
	raw, err := c.Stats()
	if err != nil {
		return nil, fmt.Errorf("STATS: %w", err)
	}
	out := make(map[string]int64, len(raw))
	for k, v := range raw {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			out[k] = n
		}
	}
	return out, nil
}

// windowResult is what one timed window measured.
type windowResult struct {
	ops     int64     // operations sent
	failed  int64     // operations whose batch failed or whose reply was wrong
	elapsed float64   // seconds from the window's start to its last reply
	rtts    []float64 // per-batch round trip, µs; failedRTTus for a failed batch
	cpu     time.Duration
}

func (r windowResult) opsPerSec() float64 { return ratio(float64(r.ops-r.failed), r.elapsed) }

// add folds window o into r, as one window of their summed length.
func (r *windowResult) add(o windowResult) {
	r.ops += o.ops
	r.failed += o.failed
	r.elapsed += o.elapsed
	r.rtts = append(r.rtts, o.rtts...)
	r.cpu += o.cpu
}

// genWorker is one connection's share of the generator: its client, its
// stream, and scratch reused across batches.
type genWorker struct {
	c        *client.Client
	s        *stream
	ks       *keyspace
	batch    client.Batch
	ops      []op
	res      []client.Result
	id       int
	sent     int
	nextID   int64
	failures []string // the first few failures seen
}

func newWorkers(cs []*client.Client, w *workload, ks *keyspace, seed int64) []*genWorker {
	ws := make([]*genWorker, len(cs))
	for g, c := range cs {
		ws[g] = &genWorker{id: g, c: c, s: newStream(w, seed, g), ks: ks, ops: make([]op, depth)}
	}
	return ws
}

// window runs the workers for d, recording a span per batch into their
// span buffers when bufs is non-nil (one buffer per worker).
func window(ws []*genWorker, d time.Duration, bufs []*spanBuf) windowResult {
	type part struct {
		ops, failed int64
		rtts        []float64
		end         time.Time
	}
	parts := make([]part, len(ws))
	cpu0 := processCPU()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for g, wk := range ws {
		wg.Add(1)
		var buf *spanBuf
		if bufs != nil {
			buf = bufs[g]
		}
		go func(p *part, wk *genWorker, buf *spanBuf) {
			defer wg.Done()
			p.rtts = make([]float64, 0, 1<<14)
			for time.Now().Before(deadline) {
				rtt, bad := wk.roundTrip(buf)
				p.ops += depth
				p.failed += int64(bad)
				p.rtts = append(p.rtts, rtt)
			}
			p.end = time.Now()
		}(&parts[g], wk, buf)
	}
	wg.Wait()
	r := windowResult{cpu: processCPU() - cpu0}
	last := start
	for _, p := range parts {
		r.ops += p.ops
		r.failed += p.failed
		r.rtts = append(r.rtts, p.rtts...)
		if p.end.After(last) {
			last = p.end
		}
	}
	r.elapsed = last.Sub(start).Seconds()
	return r
}

// roundTrip sends the stream's next batch and checks every reply. It
// returns the batch's round trip in µs and the number of failed
// operations: all of them when the batch itself failed.
func (wk *genWorker) roundTrip(buf *spanBuf) (rttUS float64, failed int) {
	wk.batch.Reset()
	for i := range wk.ops {
		o := wk.s.next()
		wk.ops[i] = o
		key := wk.ks.keys[o.key]
		switch o.verb {
		case opGet:
			wk.batch.Get(key)
		case opSet:
			wk.batch.Set(key, wk.ks.vals[o.key])
		default:
			wk.batch.Delete(key)
		}
	}
	wk.sent += depth
	sp := buf.begin("client.batch", -1, wk.nextID)
	wk.nextID++
	t0 := time.Now()
	var err error
	wk.res, err = wk.c.DoInto(&wk.batch, wk.res[:0])
	rtt := time.Since(t0)
	buf.end(sp)
	if err != nil {
		wk.noteFailure(fmt.Sprintf("batch failed: %v", err))
		return failedRTTus, depth
	}
	bad, first := checkReplies(wk.ops, wk.res, wk.ks)
	if bad > 0 {
		wk.noteFailure(fmt.Sprintf("%d wrong replies, first %s", bad, first))
	}
	return float64(rtt.Nanoseconds()) / 1e3, bad
}

// noteFailure keeps the first few failures a connection saw, for the
// report.
func (wk *genWorker) noteFailure(s string) {
	if len(wk.failures) < 3 {
		wk.failures = append(wk.failures, fmt.Sprintf("conn %d, batch %d: %s", wk.id, wk.nextID-1, s))
	}
}

// checkReplies counts the replies that are not what the workload allows:
// a missing reply, a reply for another key, a SET not acknowledged, or a
// GET hit whose value is not the requested key's. It also describes the
// first such reply.
func checkReplies(ops []op, res []client.Result, ks *keyspace) (bad int, first string) {
	for i, o := range ops {
		var why string
		switch {
		case i >= len(res):
			why = "no reply"
		case res[i].Key != ks.keys[o.key]:
			why = fmt.Sprintf("reply for key %q", res[i].Key)
		case o.verb == opSet && !res[i].Found:
			why = "not acknowledged"
		case o.verb == opGet && res[i].Found && !bytes.Equal(res[i].Value, ks.vals[o.key]):
			why = fmt.Sprintf("value %q", res[i].Value)
		}
		if why != "" {
			bad++
			if first == "" {
				first = fmt.Sprintf("%c %s: %s", o.verb, ks.keys[o.key], why)
			}
		}
	}
	return bad, first
}

// sweep GETs every key of the keyspace and returns the keys found with
// their values, and the number of keys whose value is malformed or that
// failed to read.
func sweep(c *client.Client, ks *keyspace) (map[string]string, int) {
	found := make(map[string]string)
	bad := 0
	var b client.Batch
	var res []client.Result
	for lo := 0; lo < len(ks.keys); lo += sweepDepth {
		hi := min(lo+sweepDepth, len(ks.keys))
		b.Reset()
		for i := lo; i < hi; i++ {
			b.Get(ks.keys[i])
		}
		var err error
		if res, err = c.DoInto(&b, res[:0]); err != nil {
			bad += hi - lo
			continue
		}
		for _, r := range res {
			if !r.Found {
				continue
			}
			if !ks.valid(r.Key, r.Value) {
				bad++
			}
			found[r.Key] = string(r.Value)
		}
	}
	return found, bad
}

// diffMaps counts the keys on which two sweeps disagree: present in one
// only, or present in both with different values.
func diffMaps(a, b map[string]string) int {
	n := 0
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			n++
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			n++
		}
	}
	return n
}

// processCPU returns the benchmark process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
