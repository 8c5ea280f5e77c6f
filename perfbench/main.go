// Command perfbench is the valoisd benchmark. One run starts a fresh
// valoisd built from this checkout, drives it over loopback from this
// single generator process (2 connections, RESP, pipeline depth 48, a
// closed loop: a connection sends its next batch only after every reply
// of the previous one), checks every reply, and prints every metric by
// name with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the checkout root; perfbench/run.sh builds and runs it):
//
//	perfbench -valoisd BIN -work DIR --workload NAME --seed N --seconds S --trace 0|1
//
// With --trace 0 the run reports the end-to-end metrics: ops_per_s,
// batch_p50_us, batch_p99_us (exact percentiles of the per-batch round
// trips), setup_s (median over several set-ups of the time from valoisd's
// exec until it serves with the workload's keys prefilled) and
// server_rss_mb (valoisd's VmHWM). failed_frac is printed beside them
// and carried by the "attempted" and "failed" fields.
//
// With --trace 1 the run reports the per-layer metrics: alternating
// untraced and traced wire slices (their ops/s give trace_overhead_frac),
// STATS and /proc deltas for the server, mm and persist layers, and an
// in-process replay of the same seeded operation stream through the proto
// codecs, both dictionaries (the workload's own first), core.List
// cursors, persist.Log and a loopback echo.
// Spans of the traced parts are written to DIR/spans/.
//
// Correctness: every reply is checked; after the timed window a GET sweep
// must find exactly STATS curr_items keys, each with a well-formed value;
// on a workload with a log, valoisd is then SIGKILLed and restarted on
// the same data directory and a second sweep must return the identical
// map. Any failure makes "correct" false and the exit status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"valois/internal/client"
	"valois/internal/persist"
	"valois/internal/proto"
)

// warmup is the unrecorded load run between set-up and the timed window.
const warmup = time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload name")
		seed    = fs.Int64("seed", 1, "seed of the operation streams")
		seconds = fs.Int("seconds", 10, "length of the timed window, in seconds")
		trace   = fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
		bin     = fs.String("valoisd", "", "path of the valoisd binary")
		work    = fs.String("work", "", "directory for valoisd data and span files")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *bin == "" || *work == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds ≥ 1, --trace 0|1, -valoisd and -work\n", workloadNames())
		return 2
	}
	runtime.GOMAXPROCS(min(conns, runtime.NumCPU()))
	// The generator's live heap is a few MB; collecting less often keeps
	// its GC cycles from taking CPU the shared host gives valoisd.
	debug.SetGCPercent(400)
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b := &bench{w: w, ks: newKeyspace(w.keys), seed: *seed, window: time.Duration(*seconds) * time.Second,
		bin: *bin, work: *work, dataDir: filepath.Join(*work, "data")}
	b.host = newHostInfo(w, *seed, *work)
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%d trace=%d\nwhy: %s\n", w.name, *seed, *seconds, *trace, w.why)
	var res *result
	var err error
	if *trace == 1 {
		res, err = b.traced()
	} else {
		res, err = b.untraced()
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := res.report(stdout, b.host); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.correct() {
		return 1
	}
	return 0
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// bench is one run's configuration.
type bench struct {
	w       *workload
	ks      *keyspace
	seed    int64
	window  time.Duration
	bin     string
	work    string
	dataDir string
	host    hostInfo
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result accumulates a run's metrics and its correctness tally.
type result struct {
	attempted int64
	failed    int64
	names     []string // report order
	metrics   map[string]metric
	notes     []string // printed after the metrics
}

func (r *result) set(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = make(map[string]metric)
	}
	if _, ok := r.metrics[name]; !ok {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{v, unit}
}

func (r *result) tally(attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
}

// noteFailures adds the failures the generator's connections recorded to
// the report, with the tail of valoisd's log, which names any panic.
func (r *result) noteFailures(ws []*genWorker, d *daemon) {
	failed := false
	for _, wk := range ws {
		for _, f := range wk.failures {
			r.notes = append(r.notes, "failure: "+f)
			failed = true
		}
	}
	if failed {
		r.notes = append(r.notes, "valoisd log: "+d.log.String())
	}
}

func (r *result) failedFrac() float64 { return ratio(float64(r.failed), float64(r.attempted)) }

func (r *result) correct() bool { return r.attempted > 0 && r.failed == 0 }

// report prints the host block, every metric with its unit, the notes,
// and last the JSON result line.
func (r *result) report(w io.Writer, h hostInfo) error {
	host, err := json.Marshal(h)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "host %s\n", host)
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, make(map[string]metric, len(r.metrics))}
	for _, n := range r.names {
		m := r.metrics[n]
		fmt.Fprintf(w, "%-30s %16.6f %s\n", n, m.Value, m.Unit)
		out.Metrics[n] = m
	}
	fmt.Fprintf(w, "%-30s %16.6f frac (%d failed of %d attempted)\n", "failed_frac", r.failedFrac(), r.failed, r.attempted)
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	return nil
}

// setup starts a fresh valoisd (on an empty data directory) and prefills
// the keyspace, returning the daemon, its connections and the time from
// exec until both were done.
func (b *bench) setup() (*daemon, []*client.Client, float64, error) {
	if err := os.RemoveAll(b.dataDir); err != nil {
		return nil, nil, 0, err
	}
	t0 := time.Now()
	d, err := startDaemon(b.bin, daemonArgs(b.w, b.dataDir))
	if err != nil {
		return nil, nil, 0, err
	}
	cs, err := dial(d.addr)
	if err == nil {
		if err = prefill(cs, b.ks); err != nil {
			closeAll(cs)
		}
	}
	if err != nil {
		d.kill()
		return nil, nil, 0, err
	}
	b.host.GomaxprocsD = d.gomaxprocs
	return d, cs, time.Since(t0).Seconds(), nil
}

// audit checks the state the timed load left: a GET sweep must find
// exactly STATS curr_items keys, each with a well-formed value; with a
// log, valoisd is then killed and restarted on the same data directory
// and a second sweep must return the identical map. It returns the
// (possibly restarted) daemon and connections, and counts into r.
func (b *bench) audit(d *daemon, cs []*client.Client, r *result) (*daemon, []*client.Client, error) {
	st, err := stats(cs[0])
	if err != nil {
		return d, cs, err
	}
	found, bad := sweep(cs[0], b.ks)
	if diff := int64(len(found)) - st["curr_items"]; diff != 0 {
		bad += int(max(diff, -diff))
		r.notes = append(r.notes, fmt.Sprintf("audit: sweep found %d keys, STATS curr_items %d", len(found), st["curr_items"]))
	}
	r.tally(int64(len(b.ks.keys)), int64(bad))
	if b.w.fsync == "" {
		return d, cs, nil
	}
	closeAll(cs)
	d.kill()
	d, err = startDaemon(b.bin, daemonArgs(b.w, b.dataDir))
	if err != nil {
		return nil, nil, fmt.Errorf("restart after SIGKILL: %w", err)
	}
	if cs, err = dial(d.addr); err != nil {
		d.kill()
		return nil, nil, err
	}
	again, bad := sweep(cs[0], b.ks)
	if diff := diffMaps(found, again); diff != 0 {
		bad += diff
		r.notes = append(r.notes, fmt.Sprintf("audit: %d keys differ after SIGKILL and restart", diff))
	}
	r.tally(int64(len(b.ks.keys)), int64(bad))
	return d, cs, nil
}

// untraced is the end-to-end run.
func (b *bench) untraced() (*result, error) {
	r := &result{}
	var setups []float64
	var d *daemon
	var cs []*client.Client
	for i := 0; i < b.w.setups; i++ {
		if d != nil {
			closeAll(cs)
			d.kill()
		}
		var t float64
		var err error
		if d, cs, t, err = b.setup(); err != nil {
			return nil, err
		}
		setups = append(setups, t)
	}
	defer func() {
		if d != nil { // nil after a failed restart, which killed it
			closeAll(cs)
			d.stop()
		}
	}()
	ws := newWorkers(cs, b.w, b.ks, b.seed)
	warm := window(ws, warmup, nil)
	r.tally(warm.ops, warm.failed)
	win := window(ws, b.window, nil)
	r.tally(win.ops, win.failed)
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	r.noteFailures(ws, d)
	if d, cs, err = b.audit(d, cs, r); err != nil {
		return nil, err
	}
	batches := len(win.rtts)
	r.set("ops_per_s", win.opsPerSec(), "1/s")
	r.set("batch_p50_us", percentile(win.rtts, 50), "us")
	r.set("batch_p99_us", percentile(win.rtts, 99), "us")
	r.set("setup_s", median(setups), "s")
	r.set("server_rss_mb", rss, "MB")
	r.notes = append(r.notes,
		fmt.Sprintf("batch_p50_us, batch_p99_us: exact percentiles of n=%d batch round trips (%d commands each)", batches, depth),
		fmt.Sprintf("setup_s: median of %d set-ups %.4f", len(setups), setups))
	return r, nil
}

// The traced run's wire window: traceRounds pairs of an untraced and a
// traced slice; the traced slices sample STATS mm_limbo every limboPoll.
const (
	traceRounds = 5
	limboPoll   = 250 * time.Millisecond
)

// traced is the per-layer run.
func (b *bench) traced() (*result, error) {
	r := &result{}
	d, cs, _, err := b.setup()
	if err != nil {
		return nil, err
	}
	defer func() {
		if d != nil {
			closeAll(cs)
			d.stop()
		}
	}()
	ws := newWorkers(cs, b.w, b.ks, b.seed)
	warm := window(ws, warmup, nil)
	r.tally(warm.ops, warm.failed)

	// The window alternates untraced and traced slices, so drift in the
	// host's speed touches both alike. The untraced slices give the
	// server, client, mm and persist figures from STATS and /proc deltas;
	// the traced ones record a span per batch while a separate connection
	// polls STATS for the limbo peak.
	slice := max(b.window/(2*traceRounds), 200*time.Millisecond)
	tr := newTracer()
	var bufs []*spanBuf
	var a, tw windowResult
	var cpu time.Duration
	deltas := make(map[string]int64)
	var limbo int64
	pc, err := client.Dial(d.addr, client.Options{Protocol: proto.ProtocolRESP, Retries: -1})
	if err != nil {
		return nil, err
	}
	defer pc.Close()
	for i := 0; i < traceRounds; i++ {
		st0, err := stats(cs[0])
		if err != nil {
			return nil, err
		}
		cpu0, err := d.cpuTime()
		if err != nil {
			return nil, err
		}
		a.add(window(ws, slice, nil))
		cpu1, err := d.cpuTime()
		if err != nil {
			return nil, err
		}
		st1, err := stats(cs[0])
		if err != nil {
			return nil, err
		}
		cpu += cpu1 - cpu0
		for k, v := range st1 {
			deltas[k] += v - st0[k]
		}
		limbo = max(limbo, st1["mm_limbo"])
		if bufs == nil {
			perConn := traceRounds * slice.Seconds() * a.opsPerSec() / depth / float64(len(ws))
			for range ws {
				bufs = append(bufs, tr.buf(int(perConn*1.5)+1024))
			}
		}
		peak, err := pollLimbo(pc, func() { tw.add(window(ws, slice, bufs)) })
		if err != nil {
			return nil, err
		}
		limbo = max(limbo, peak)
	}
	_ = pc.Close() // the poll is over; a failed QUIT changes nothing
	r.tally(a.ops+tw.ops, a.failed+tw.failed)
	overhead := 1 - ratio(tw.opsPerSec(), a.opsPerSec())
	st2, err := stats(cs[0])
	if err != nil {
		return nil, err
	}
	limbo = max(limbo, st2["mm_limbo"])
	r.noteFailures(ws, d)
	if d, cs, err = b.audit(d, cs, r); err != nil {
		return nil, err
	}
	closeAll(cs)
	d.stop()
	d = nil

	opsPerG := make([]int, len(ws))
	for g, wk := range ws {
		opsPerG[g] = min(wk.sent, b.w.replay)
	}
	// The workload's own dictionary replays first, appending each mutation
	// to a log under the workload's policy. A workload without a log still
	// times the append path, under fsync=no, off the server path.
	logged := b.w.fsync != ""
	policy, logDir := b.w.fsync, filepath.Join(b.work, "replay-aof")
	if !logged {
		policy = "no"
	}
	runs := make(map[string]layerRun)
	var rp *replayer
	for i, backend := range []string{b.w.backend, otherBackend(b.w.backend)} {
		p, err := newReplayer(b.w, b.ks, b.seed, opsPerG, backend)
		if err != nil {
			return nil, err
		}
		var log *persist.Log
		if i == 0 {
			rp = p
			if log, err = openReplayLog(logDir, policy); err != nil {
				return nil, err
			}
		}
		lr, err := p.run(tr, log)
		if log != nil {
			if cerr := log.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			return nil, err
		}
		runs[p.layer] = lr
	}
	// persist.Open times the recovery of the wire run's data directory or,
	// on a workload without a log, of the replay's own log.
	recoverDir := logDir
	if logged {
		recoverDir = b.dataDir
	}
	replayUS, records, err := replayLog(recoverDir, tr)
	if err != nil {
		return nil, err
	}
	cr, err := rp.codecPass(tr)
	if err != nil {
		return nil, err
	}
	hops := rp.hopPass(tr)
	firstBatch, err := rp.firstBatchRESP()
	if err != nil {
		return nil, err
	}
	echo, err := echoRTT(firstBatch, 5000, tr)
	if err != nil {
		return nil, err
	}
	hash, skip, own := runs["dict"], runs["skiplist"], runs[rp.layer]
	ops := float64(rp.ops())
	// Each dictionary replayed the streams twice.
	r.tally(int64(4*rp.ops()+cr.cmds), int64(hash.counts.bad+skip.counts.bad+cr.bad))
	for _, lr := range []layerRun{hash, skip} {
		if lr.counts.panicked != "" {
			r.notes = append(r.notes, "failure: "+lr.counts.panicked)
		}
	}

	lt := tr.merged()
	selfNs := func(name string) float64 { return float64(lt[name].self) }
	perSpan := func(name string) float64 { return ratio(selfNs(name), float64(lt[name].count)) }
	delta := func(k string) float64 { return float64(deltas[k]) }
	wireOps := float64(a.ops - a.failed)

	serverCPU := ratio(float64(cpu.Microseconds()), wireOps)
	r.set("server.cpu_us_per_op", serverCPU, "us")
	r.set("server.batch_cmds", ratio(delta("batched_ops"), delta("batches")), "count")
	r.set("server.bytes_in_per_op", ratio(delta("bytes_in"), wireOps), "B")
	r.set("server.bytes_out_per_op", ratio(delta("bytes_out"), wireOps), "B")
	r.set("proto.resp_decode_ns", ratio(selfNs("proto.resp_decode"), float64(cr.cmds)), "ns")
	r.set("proto.text_decode_ns", ratio(selfNs("proto.text_decode"), float64(cr.cmds)), "ns")
	r.set("proto.encode_ns", ratio(selfNs("proto.encode"), float64(cr.cmds)), "ns")
	r.set("proto.allocs_per_cmd", ratio(float64(cr.mallocs), float64(cr.cmds)), "count")
	r.set("client.cpu_us_per_op", ratio(float64(a.cpu.Microseconds()), wireOps), "us")
	r.set("socket.echo_rtt_us", echo, "us")
	r.set("dict.find_ns", perSpan("dict.find"), "ns")
	r.set("dict.insert_ns", perSpan("dict.insert"), "ns")
	r.set("dict.delete_ns", perSpan("dict.delete"), "ns")
	r.set("dict.allocs_per_op", ratio(float64(hash.mallocs), ops), "count")
	r.set("skiplist.find_ns", perSpan("skiplist.find"), "ns")
	r.set("skiplist.insert_ns", perSpan("skiplist.insert"), "ns")
	r.set("skiplist.delete_ns", perSpan("skiplist.delete"), "ns")
	r.set("skiplist.insert_fail_frac", ratio(float64(skip.counts.insertFails), float64(skip.counts.inserts)), "frac")
	r.set("skiplist.allocs_per_op", ratio(float64(skip.mallocs), ops), "count")
	r.set("skiplist.bytes_per_op", ratio(float64(skip.bytes), ops), "B")
	r.set("core.hop_ns", ratio(selfNs("core.traverse"), float64(hops)), "ns")
	r.set("core.aux_skips_per_op", ratio(float64(own.work.AuxSkips), ops), "count")
	r.set("core.backlink_steps_per_op", ratio(float64(own.work.BacklinkSteps), ops), "count")
	r.set("core.retries_per_op", ratio(float64(own.work.InsertRetries+own.work.DeleteRetries+own.work.DeleteCASRetries), ops), "count")
	r.set("mm.allocs_per_op", ratio(delta("mm_allocs"), wireOps), "count")
	r.set("mm.reclaims_per_op", ratio(delta("mm_reclaims"), wireOps), "count")
	r.set("mm.steals_per_op", ratio(delta("mm_steals"), wireOps), "count")
	// Under gc the manager counts no reclaims, so mm_live there is every
	// cell ever allocated rather than the live population.
	r.set("mm.live_cells_per_key", ratio(float64(st2["mm_live"]), float64(st2["curr_items"])), "count")
	r.set("mm.limbo_peak", float64(limbo), "count")
	r.set("persist.append_us", perSpan("persist.append")/1e3, "us")
	r.set("persist.fsyncs_per_mutation", ratio(delta("aof_fsyncs"), delta("aof_records")), "count")
	r.set("persist.bytes_per_mutation", ratio(delta("aof_bytes"), delta("aof_records")), "B")
	r.set("persist.replay_us_per_record", replayUS, "us")

	// Reconciliation: the server's CPU per op against the layers' self
	// time per replayed op, summed over the server-path calls. Under
	// fsync=always persist.append's self time is mostly fsync wait, which
	// is not CPU, so the unexplained part reads negative on durable-hash.
	table, explained := layerTable(lt, rp.layer, logged, ops, serverCPU)
	r.set("unexplained_us_per_op", serverCPU-explained, "us")
	r.set("trace_overhead_frac", overhead, "frac")

	spans := filepath.Join(b.work, "spans", b.w.name+".tsv")
	if err := os.MkdirAll(filepath.Dir(spans), 0o755); err != nil {
		return nil, err
	}
	if err := tr.write(spans); err != nil {
		return nil, err
	}
	r.notes = append(r.notes, table...)
	r.notes = append(r.notes,
		fmt.Sprintf("replay: %d ops over %d goroutines through %s (the workload's) and %s; wire: %d rounds of %v untraced + %v traced; log replay: %d records",
			rp.ops(), len(ws), rp.backend, otherBackend(rp.backend), traceRounds, slice, slice, records),
		"spans: "+spans)
	if !logged {
		r.notes = append(r.notes, "persist: valoisd runs without a log here; persist.append_us and persist.replay_us_per_record time the replay's own log under fsync=no, off the server path")
	}
	return r, nil
}

// serverPath reports whether a replay span is a call valoisd makes while
// serving a command: its self time counts toward the explained server
// work per op.
func serverPath(name, layer string, logged bool) bool {
	switch name {
	case "proto.resp_decode", "proto.encode", "server.set":
		return true
	case "persist.append":
		return logged
	}
	return layerOf(name) == layer
}

// layerTable renders each span name's self time, then each layer's self
// time per replayed op over the server-path spans, and the reconciliation
// against the server's measured CPU per op.
func layerTable(lt map[string]layerTime, layer string, logged bool, ops, serverCPU float64) (lines []string, explained float64) {
	names := make([]string, 0, len(lt))
	for n := range lt {
		names = append(names, n)
	}
	sort.Strings(names)
	lines = append(lines, fmt.Sprintf("%-22s %10s %12s %12s %14s", "span", "count", "total_ms", "self_ms", "self_us/span"))
	layers := map[string]float64{}
	for _, n := range names {
		t := lt[n]
		lines = append(lines, fmt.Sprintf("%-22s %10d %12.3f %12.3f %14.4f", n, t.count,
			float64(t.total)/1e6, float64(t.self)/1e6, float64(t.self)/1e3/float64(t.count)))
		if serverPath(n, layer, logged) {
			layers[layerOf(n)] += float64(t.self) / 1e3 / ops
		}
	}
	ls := make([]string, 0, len(layers))
	for l := range layers {
		ls = append(ls, l)
	}
	sort.Strings(ls)
	lines = append(lines, fmt.Sprintf("%-22s %14s", "layer (server path)", "self_us/op"))
	for _, l := range ls {
		lines = append(lines, fmt.Sprintf("%-22s %14.4f", l, layers[l]))
		explained += layers[l]
	}
	lines = append(lines,
		fmt.Sprintf("%-22s %14.4f", "explained", explained),
		fmt.Sprintf("%-22s %14.4f", "server.cpu_us_per_op", serverCPU),
		fmt.Sprintf("%-22s %14.4f", "unexplained", serverCPU-explained))
	return lines, explained
}

// pollLimbo runs f while sampling STATS mm_limbo on c, and returns the
// largest sample.
func pollLimbo(c *client.Client, f func()) (int64, error) {
	stop := make(chan struct{})
	done := make(chan struct{})
	var peak int64
	var pollErr error
	go func() {
		defer close(done)
		t := time.NewTicker(limboPoll)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				st, err := stats(c)
				if err != nil {
					pollErr = err
					return
				}
				peak = max(peak, st["mm_limbo"])
			}
		}
	}()
	f()
	close(stop)
	<-done
	if pollErr != nil {
		return 0, fmt.Errorf("limbo poll: %w", pollErr)
	}
	return peak, nil
}
