package main

import (
	"strings"
	"testing"
)

func TestReplayBothBackends(t *testing.T) {
	w := testWorkload()
	w.getPct, w.setPct = 50, 25
	ks := newKeyspace(w.keys)
	for _, backend := range []string{"hash", "skiplist"} {
		r, err := newReplayer(w, ks, 1, []int{500, 500}, backend)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		lr, err := r.run(tr, nil)
		if err != nil {
			t.Fatal(err)
		}
		if lr.counts.bad != 0 || lr.counts.panicked != "" || lr.counts.inserts == 0 {
			t.Errorf("%s: counts %+v", backend, lr.counts)
		}
		lt := tr.merged()
		if lt[r.names.find].count == 0 || lt[r.names.set].count == 0 {
			t.Errorf("%s: no %s or %s spans in %v", backend, r.names.find, r.names.set, lt)
		}
	}
}

// panicDict is a shard whose every lookup panics, as a dictionary bug
// would.
type panicDict struct{ shardDict }

func (panicDict) Find(string) ([]byte, bool) { panic("planted") }

func TestReplayPanicFails(t *testing.T) {
	w := testWorkload()
	r, err := newReplayer(w, newKeyspace(w.keys), 1, []int{100, 100}, w.backend)
	if err != nil {
		t.Fatal(err)
	}
	r.shards = make([]shardDict, shards)
	for i := range r.shards {
		r.shards[i] = panicDict{}
	}
	c, err := r.dictPass(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.bad != 200 || !strings.Contains(c.panicked, "planted") {
		t.Fatalf("panicking dictionary: %d failed, panic %q; want 200 and the panic", c.bad, c.panicked)
	}
}
