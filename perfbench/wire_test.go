package main

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"valois/internal/client"
	"valois/internal/proto"
	"valois/internal/server"
)

// serve starts an in-process valoisd on loopback for the test.
func serve(t *testing.T) string {
	t.Helper()
	srv, err := server.New(server.Config{Backend: "hash", Mode: "gc", Shards: shards, Protocol: proto.ProtocolRESP})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Error(err)
		}
		if err := <-served; !errors.Is(err, server.ErrServerClosed) {
			t.Error(err)
		}
	})
	return ln.Addr().String()
}

// testWorkload is a small all-GET workload over a prefilled keyspace.
func testWorkload() *workload {
	return &workload{name: "test", backend: "hash", mode: "gc", keys: 64, getPct: 100}
}

func prefilled(t *testing.T, w *workload) ([]*client.Client, *keyspace) {
	t.Helper()
	ks := newKeyspace(w.keys)
	cs, err := dial(serve(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeAll(cs) })
	if err := prefill(cs, ks); err != nil {
		t.Fatal(err)
	}
	return cs, ks
}

func TestCleanRunHasNoFailures(t *testing.T) {
	w := testWorkload()
	w.getPct, w.setPct = 50, 25
	cs, ks := prefilled(t, w)
	res := window(newWorkers(cs, w, ks, 1), 200*time.Millisecond, nil)
	if res.ops == 0 || res.failed != 0 {
		t.Fatalf("clean run: %d ops, %d failed", res.ops, res.failed)
	}
	found, bad := sweep(cs[0], ks)
	st, err := stats(cs[0])
	if err != nil {
		t.Fatal(err)
	}
	if bad != 0 || int64(len(found)) != st["curr_items"] {
		t.Fatalf("sweep: %d bad, %d found, curr_items %d", bad, len(found), st["curr_items"])
	}
}

func TestPlantedWrongValueFails(t *testing.T) {
	w := testWorkload()
	cs, ks := prefilled(t, w)
	// A well-formed value that encodes another key.
	if err := cs[0].Set(ks.keys[7], valueFor(8)); err != nil {
		t.Fatal(err)
	}
	res := window(newWorkers(cs, w, ks, 1), 200*time.Millisecond, nil)
	var r result
	r.tally(res.ops, res.failed)
	if r.failedFrac() <= 0 {
		t.Fatalf("wrong value went unnoticed: %d ops, %d failed", res.ops, res.failed)
	}
	if _, bad := sweep(cs[0], ks); bad != 1 {
		t.Errorf("sweep flagged %d values, want 1", bad)
	}
}

func TestPlantedMissingKeyFails(t *testing.T) {
	w := testWorkload()
	cs, ks := prefilled(t, w)
	before, bad := sweep(cs[0], ks)
	if bad != 0 || len(before) != w.keys {
		t.Fatalf("sweep before: %d bad, %d found", bad, len(before))
	}
	// The key vanishes between the two sweeps, as a lost write would
	// across a restart.
	if _, err := cs[0].Delete(ks.keys[3]); err != nil {
		t.Fatal(err)
	}
	after, _ := sweep(cs[0], ks)
	var r result
	r.tally(int64(2*w.keys), int64(diffMaps(before, after)))
	if r.failedFrac() <= 0 {
		t.Fatal("missing key went unnoticed")
	}
	if n := diffMaps(before, after); n != 1 {
		t.Errorf("diffMaps = %d, want 1", n)
	}
}

func TestCheckReplies(t *testing.T) {
	ks := newKeyspace(4)
	ops := []op{{opGet, 0}, {opSet, 1}, {opDel, 2}, {opGet, 3}}
	good := []client.Result{
		{Key: ks.keys[0], Value: ks.vals[0], Found: true},
		{Key: ks.keys[1], Found: true},
		{Key: ks.keys[2]},
		{Key: ks.keys[3]}, // a miss is a valid reply
	}
	if n, _ := checkReplies(ops, good, ks); n != 0 {
		t.Fatalf("good replies: %d flagged", n)
	}
	wrong := append([]client.Result(nil), good...)
	wrong[0].Value = ks.vals[1]
	if n, first := checkReplies(ops, wrong, ks); n != 1 || first != `g k0000000: value "v000000000000001"` {
		t.Errorf("wrong value: %d flagged, first %q", n, first)
	}
	if n, _ := checkReplies(ops, good[:2], ks); n != 2 {
		t.Errorf("missing replies: %d flagged, want 2", n)
	}
}

func TestStreamsAreSeeded(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, b := newStream(w, 5, 1).take(1000), newStream(w, 5, 1).take(1000)
		other := newStream(w, 6, 1).take(1000)
		same, differ := true, false
		for j := range a {
			same = same && a[j] == b[j]
			differ = differ || a[j] != other[j]
			if a[j].key < 0 || int(a[j].key) >= w.keys {
				t.Fatalf("%s: key %d out of range", w.name, a[j].key)
			}
		}
		if !same || !differ {
			t.Errorf("%s: same seed same stream %v, other seed differs %v", w.name, same, differ)
		}
	}
}

func TestValueEncodesKey(t *testing.T) {
	ks := newKeyspace(262144)
	if !ks.valid(keyName(262143), valueFor(262143)) {
		t.Error("value of a key rejected")
	}
	if ks.valid(keyName(1), valueFor(2)) || ks.valid(keyName(1), valueFor(1)[:15]) ||
		ks.valid("x", valueFor(1)) || newKeyspace(4).valid(keyName(5), valueFor(5)) {
		t.Error("bad value accepted")
	}
	if len(valueFor(0)) != valueLen {
		t.Errorf("value length %d, want %d", len(valueFor(0)), valueLen)
	}
}
