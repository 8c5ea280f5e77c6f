package main

import (
	"bufio"
	"bytes"
	"cmp"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"valois/internal/core"
	"valois/internal/dict"
	"valois/internal/mm"
	"valois/internal/persist"
	"valois/internal/primitive"
	"valois/internal/proto"
	"valois/internal/skiplist"
)

// The traced replay. It feeds the wire run's seeded operation stream to
// each module's public functions in-process: both dictionaries (dict.Hash
// and skiplist.SkipList, each sharded by valoisd's shard function, the
// workload's own backend first), the proto codecs, core.List cursors,
// persist.Log, and a raw loopback echo. It uses the same seed and the
// same number of goroutines as the wire run, so shard sizes and
// contention match. Every layer runs on every workload, so the per-layer
// times of one stream can be compared across dictionaries; only the
// workload's own dictionary counts toward the server's explained time.

// shardDict is the surface the replay calls on one shard; dict.Hash and
// skiplist.SkipList both provide it.
type shardDict interface {
	Find(key string) ([]byte, bool)
	Insert(key string, value []byte) bool
	Delete(key string) bool
	EnableStats()
	WorkStats() core.WorkStats
	Close()
}

func newShardDict(backend string, mode mm.Mode) shardDict {
	if backend == "hash" {
		// valoisd's default bucket count per shard.
		return dict.NewHash[string, []byte](1024, mode, dict.HashString)
	}
	return skiplist.New[string, []byte](mode)
}

// shardOf is valoisd's shard function.
func shardOf(key string) int { return int(dict.HashString(key) % shards) }

// layerNames are the span names of one dictionary layer; built once so
// the replay loop does not concatenate strings. set wraps SET's loop: it
// is server.set for the workload's own backend, which valoisd runs, and
// the layer's own name for the other.
type layerNames struct{ find, insert, delete, set string }

// dictCounts are one goroutine's operation counts in a dictionary pass.
type dictCounts struct {
	inserts, insertFails, bad int
	panicked                  string // the first panic a dictionary call raised
}

// add folds o into c.
func (c *dictCounts) add(o dictCounts) {
	c.inserts += o.inserts
	c.insertFails += o.insertFails
	c.bad += o.bad
	c.panicked = cmp.Or(c.panicked, o.panicked)
}

// otherBackend is the dictionary the workload does not serve from.
func otherBackend(backend string) string {
	if backend == "hash" {
		return "skiplist"
	}
	return "hash"
}

// replayer holds the state shared by the replay passes over one
// dictionary backend.
type replayer struct {
	w       *workload
	ks      *keyspace
	mode    mm.Mode
	backend string // "hash" or "skiplist"
	layer   string // its span layer: "dict" or "skiplist"
	names   layerNames
	streams [][]op   // one per goroutine
	found   [][]bool // per op: GET hit or DELETE deleted, from the dictionary pass
	shards  []shardDict
}

func newReplayer(w *workload, ks *keyspace, seed int64, opsPerG []int, backend string) (*replayer, error) {
	mode, ok := mm.ParseMode(w.mode)
	if !ok {
		return nil, fmt.Errorf("unknown mode %q", w.mode)
	}
	r := &replayer{w: w, ks: ks, mode: mode, backend: backend, layer: "skiplist"}
	if backend == "hash" {
		r.layer = "dict"
	}
	r.names = layerNames{r.layer + ".find", r.layer + ".insert", r.layer + ".delete", "server.set"}
	if backend != w.backend {
		r.names.set = r.layer + ".set"
	}
	for g, n := range opsPerG {
		r.streams = append(r.streams, newStream(w, seed, g).take(n))
		r.found = append(r.found, make([]bool, n))
	}
	return r, nil
}

func (r *replayer) ops() int {
	n := 0
	for _, s := range r.streams {
		n += len(s)
	}
	return n
}

// parallel runs f once per stream on its own goroutine and waits.
func (r *replayer) parallel(f func(g int)) {
	var wg sync.WaitGroup
	for g := range r.streams {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			f(g)
		}(g)
	}
	wg.Wait()
}

// build creates the shards and prefills every key, as valoisd's set-up
// does.
func (r *replayer) build() {
	r.shards = make([]shardDict, shards)
	for i := range r.shards {
		r.shards[i] = newShardDict(r.backend, r.mode)
	}
	r.parallel(func(g int) {
		for i := g; i < len(r.ks.keys); i += len(r.streams) {
			k := r.ks.keys[i]
			r.shards[shardOf(k)].Insert(k, r.ks.vals[i])
		}
	})
}

func (r *replayer) close() {
	for _, sh := range r.shards {
		sh.Close()
	}
}

// dictPass replays every stream against the shards, with valoisd's SET
// (Insert, and on a present key Delete and retry with backoff) and, when
// log is non-nil, an Append of each mutation. tr may be nil.
func (r *replayer) dictPass(tr *tracer, log *persist.Log) (dictCounts, error) {
	counts := make([]dictCounts, len(r.streams))
	errs := make([]error, len(r.streams))
	bufs := make([]*spanBuf, len(r.streams))
	for g, ops := range r.streams {
		bufs[g] = tr.buf(5*len(ops) + len(ops)/depth + 1)
	}
	r.parallel(func(g int) {
		ops, found, buf, c := r.streams[g], r.found[g], bufs[g], &counts[g]
		i := 0
		defer func() {
			// A panic in a dictionary call is the program's fault, as
			// valoisd's SERVER_ERROR is on the wire: the goroutine's
			// remaining operations count as failed and the panic is
			// reported.
			if p := recover(); p != nil {
				c.bad += len(ops) - i
				c.panicked = fmt.Sprintf("%s replay: panic: %v", r.backend, p)
			}
		}()
		for lo := 0; lo < len(ops); lo += depth {
			id := int64(lo / depth)
			b := buf.begin("bench.batch", -1, id)
			for i = lo; i < min(lo+depth, len(ops)); i++ {
				o := ops[i]
				key, val := r.ks.keys[o.key], r.ks.vals[o.key]
				sh := r.shards[shardOf(key)]
				var mut proto.Command
				switch o.verb {
				case opGet:
					s := buf.begin(r.names.find, b, id)
					v, ok := sh.Find(key)
					buf.end(s)
					found[i] = ok
					if ok && !bytes.Equal(v, val) {
						c.bad++
					}
				case opSet:
					s := buf.begin(r.names.set, b, id)
					var backoff primitive.Backoff
					for {
						in := buf.begin(r.names.insert, s, id)
						ok := sh.Insert(key, val)
						buf.end(in)
						c.inserts++
						if ok {
							break
						}
						c.insertFails++
						d := buf.begin(r.names.delete, s, id)
						sh.Delete(key)
						buf.end(d)
						backoff.Wait()
					}
					buf.end(s)
					found[i] = true
					mut = proto.Command{Verb: proto.VerbSet, Key: key, Value: val}
				default:
					s := buf.begin(r.names.delete, b, id)
					found[i] = sh.Delete(key)
					buf.end(s)
					mut = proto.Command{Verb: proto.VerbDelete, Key: key}
				}
				if log != nil && mut.Verb != 0 {
					a := buf.begin("persist.append", b, id)
					err := log.Append(mut)
					buf.end(a)
					if err != nil && errs[g] == nil {
						errs[g] = fmt.Errorf("persist append: %w", err)
					}
				}
			}
			buf.end(b)
		}
	})
	var total dictCounts
	for g, c := range counts {
		total.add(c)
		if errs[g] != nil {
			return total, errs[g]
		}
	}
	return total, nil
}

// layerRun is what the dictionary passes over one backend measured.
type layerRun struct {
	counts         dictCounts
	work           core.WorkStats
	mallocs, bytes uint64 // heap allocations of the untraced pass
}

// run builds and prefills the shards, replays the streams through them
// traced (appending each mutation to log when log is non-nil), then again
// untraced with the work counters on, and closes the shards.
func (r *replayer) run(tr *tracer, log *persist.Log) (layerRun, error) {
	r.build()
	defer r.close()
	var lr layerRun
	var err error
	if lr.counts, err = r.dictPass(tr, log); err != nil {
		return lr, err
	}
	var again dictCounts
	again, lr.work, lr.mallocs, lr.bytes, err = r.countPass()
	// Only the traced pass's insert counts are kept; both passes' failures are.
	lr.counts.bad += again.bad
	lr.counts.panicked = cmp.Or(lr.counts.panicked, again.panicked)
	return lr, err
}

// countPass replays the streams again, untraced, with the §4.1 work
// counters on, and measures the heap allocation of the dictionary calls.
// The first pass's goroutines have ended, so enabling the counters here
// does not race with operations.
func (r *replayer) countPass() (counts dictCounts, work core.WorkStats, mallocs, bytes uint64, err error) {
	for _, sh := range r.shards {
		sh.EnableStats()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if counts, err = r.dictPass(nil, nil); err != nil {
		return
	}
	runtime.ReadMemStats(&after)
	for _, sh := range r.shards {
		ws := sh.WorkStats()
		work.AuxSkips += ws.AuxSkips
		work.BacklinkSteps += ws.BacklinkSteps
		work.InsertRetries += ws.InsertRetries
		work.DeleteRetries += ws.DeleteRetries
		work.DeleteCASRetries += ws.DeleteCASRetries
	}
	return counts, work, after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, nil
}

// codecResult is the proto layer's share of the replay.
type codecResult struct {
	cmds    int
	mallocs uint64 // during RESP decode + reply encode
	bad     int    // commands that did not decode to what was encoded
}

// codecPass decodes every batch of the streams with the RESP codec and
// encodes the replies the dictionary pass produced, then decodes the same
// commands with the text codec.
func (r *replayer) codecPass(tr *tracer) (codecResult, error) {
	type enc struct{ resp, text []byte }
	batches := make([][]enc, len(r.streams))
	for g, ops := range r.streams {
		for lo := 0; lo < len(ops); lo += depth {
			var e enc
			for _, o := range ops[lo:min(lo+depth, len(ops))] {
				cmd := r.command(o)
				var err error
				if e.resp, err = proto.AppendRESPCommand(e.resp, cmd); err != nil {
					return codecResult{}, err
				}
				if e.text, err = proto.AppendCommand(e.text, cmd); err != nil {
					return codecResult{}, err
				}
			}
			batches[g] = append(batches[g], e)
		}
	}
	res := codecResult{cmds: r.ops()}
	bad := make([]int, len(r.streams))
	bufs := make([]*spanBuf, len(r.streams))
	for g := range r.streams {
		bufs[g] = tr.buf(4*len(batches[g]) + 1)
	}
	decode := func(g int, text bool) {
		ops, found, buf := r.streams[g], r.found[g], bufs[g]
		var rc proto.RESPCodec
		var tc proto.TextCodec
		src := bytes.NewReader(nil)
		br := bufio.NewReaderSize(src, 64<<10)
		cmds := make([]proto.Command, depth)
		out := make([]byte, 0, 64<<10)
		for bi, e := range batches[g] {
			id := int64(bi)
			lo := bi * depth
			n := min(depth, len(ops)-lo)
			root := buf.begin("bench.codec", -1, id)
			name, in := "proto.resp_decode", e.resp
			if text {
				name, in = "proto.text_decode", e.text
			}
			src.Reset(in)
			br.Reset(src)
			d := buf.begin(name, root, id)
			for k := 0; k < n; k++ {
				var err error
				if text {
					cmds[k], err = tc.ReadCommand(br)
				} else {
					cmds[k], err = rc.ReadCommand(br)
				}
				if err != nil {
					cmds[k] = proto.Command{}
				}
			}
			buf.end(d)
			for k := 0; k < n; k++ {
				if !sameCommand(cmds[k], r.command(ops[lo+k])) {
					bad[g]++
				}
			}
			if !text {
				en := buf.begin("proto.encode", root, id)
				out = out[:0]
				for k := 0; k < n; k++ {
					switch ops[lo+k].verb {
					case opGet:
						var v []byte
						if found[lo+k] {
							v = r.ks.vals[ops[lo+k].key]
						}
						out = rc.AppendGetReply(out, cmds[k].Key, v, found[lo+k])
					case opSet:
						out = rc.AppendSetReply(out)
					default:
						out = rc.AppendDeleteReply(out, found[lo+k])
					}
				}
				buf.end(en)
			}
			buf.end(root)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r.parallel(func(g int) { decode(g, false) })
	runtime.ReadMemStats(&after)
	res.mallocs = after.Mallocs - before.Mallocs
	r.parallel(func(g int) { decode(g, true) })
	for _, b := range bad {
		res.bad += b
	}
	return res, nil
}

func (r *replayer) command(o op) proto.Command {
	key := r.ks.keys[o.key]
	switch o.verb {
	case opGet:
		return proto.Command{Verb: proto.VerbGet, Key: key}
	case opSet:
		return proto.Command{Verb: proto.VerbSet, Key: key, Value: r.ks.vals[o.key]}
	default:
		return proto.Command{Verb: proto.VerbDelete, Key: key}
	}
}

// firstBatchRESP returns the RESP request bytes of stream 0's first batch.
func (r *replayer) firstBatchRESP() ([]byte, error) {
	var out []byte
	ops := r.streams[0]
	for _, o := range ops[:min(depth, len(ops))] {
		var err error
		if out, err = proto.AppendRESPCommand(out, r.command(o)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func sameCommand(a, b proto.Command) bool {
	return a.Verb == b.Verb && a.Key == b.Key && bytes.Equal(a.Value, b.Value)
}

// minHops is how many cursor steps hopPass times, at least.
const minHops = 4 << 20

// hopPass measures core.List cursor Next over a list holding shard 0's
// keys (one shard's size), in the workload's memory mode. It returns the
// number of hops taken.
func (r *replayer) hopPass(tr *tracer) int {
	sl := dict.NewSortedList[string, []byte](r.mode)
	defer sl.Close()
	// Descending key order makes every insert land at the list's head.
	for i := len(r.ks.keys) - 1; i >= 0; i-- {
		if k := r.ks.keys[i]; shardOf(k) == 0 {
			sl.Insert(k, r.ks.vals[i])
		}
	}
	l := sl.List()
	buf := tr.buf(minHops/max(1, len(r.ks.keys)/shards) + 2)
	hops := 0
	for pass := int64(0); hops < minHops; pass++ {
		s := buf.begin("core.traverse", -1, pass)
		c := l.NewCursor()
		n := 0
		for c.Next() {
			n++
		}
		c.Close()
		buf.end(s)
		if n == 0 {
			break
		}
		hops += n
	}
	return hops
}

// echoRTT times round trips of payload through a raw loopback TCP echo:
// the socket's floor under a batch's round trip. It returns the median in
// µs.
func echoRTT(payload []byte, rounds int, tr *tracer) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		_, _ = io.Copy(c, c) // ends when the client closes
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close()
		<-done
		return 0, err
	}
	buf := tr.buf(rounds)
	back := make([]byte, len(payload))
	rtts := make([]float64, 0, rounds)
	for i := 0; i < rounds && err == nil; i++ {
		s := buf.begin("socket.echo", -1, int64(i))
		t0 := time.Now()
		if _, err = c.Write(payload); err == nil {
			_, err = io.ReadFull(c, back)
		}
		rtts = append(rtts, float64(time.Since(t0).Nanoseconds())/1e3)
		buf.end(s)
	}
	c.Close()
	<-done
	if err != nil {
		return 0, fmt.Errorf("echo: %w", err)
	}
	return median(rtts), nil
}

// replayLog times persist.Open's recovery of dir, the data directory a
// wire run left, applying nothing. It returns the µs per record and the
// record count.
func replayLog(dir string, tr *tracer) (float64, int, error) {
	buf := tr.buf(1)
	records := 0
	s := buf.begin("persist.replay", -1, 0)
	t0 := time.Now()
	l, info, err := persist.Open(dir, persist.PolicyNo, func(proto.Command) error {
		records++
		return nil
	}, nil)
	el := time.Since(t0)
	buf.end(s)
	if err != nil {
		return 0, 0, err
	}
	if err := l.Close(); err != nil {
		return 0, 0, err
	}
	if records != info.Replayed() {
		return 0, 0, fmt.Errorf("replay applied %d records, recovery reports %d", records, info.Replayed())
	}
	return ratio(float64(el.Nanoseconds())/1e3, float64(records)), records, nil
}

// openReplayLog opens a fresh log in dir for the replay's appends under
// the fsync policy given by name.
func openReplayLog(dir, fsync string) (*persist.Log, error) {
	policy, err := persist.ParsePolicy(fsync)
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	l, _, err := persist.Open(dir, policy, func(proto.Command) error { return nil }, nil)
	return l, err
}
