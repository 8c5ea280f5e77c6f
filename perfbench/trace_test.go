package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSelfTimeNested(t *testing.T) {
	// batch [0,100) holds two overlapping children [10,30) and [20,50)
	// and one that runs past its end, [90,120); the first child holds a
	// grandchild [12,18).
	spans := []span{
		{name: "bench.batch", start: 0, end: 100, parent: -1},
		{name: "dict.find", start: 10, end: 30, parent: 0},
		{name: "proto.encode", start: 20, end: 50, parent: 0},
		{name: "dict.find", start: 90, end: 120, parent: 0},
		{name: "core.hop", start: 12, end: 18, parent: 1},
	}
	got := selfTimes(spans)
	want := map[string]layerTime{
		// 100 minus the union [10,50) ∪ [90,100) = 100 - 50.
		"bench.batch":  {count: 1, total: 100, self: 50},
		"dict.find":    {count: 2, total: 50, self: 44},
		"proto.encode": {count: 1, total: 30, self: 30},
		"core.hop":     {count: 1, total: 6, self: 6},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("got %d names, want %d", len(got), len(want))
	}
}

func TestSpanBuffers(t *testing.T) {
	var nilBuf *spanBuf
	if i := nilBuf.begin("x", -1, 0); i != -1 {
		t.Fatalf("nil buffer begin = %d, want -1", i)
	}
	nilBuf.end(-1) // must not panic

	tr := newTracer()
	b := tr.buf(4)
	root := b.begin("bench.batch", -1, 7)
	child := b.begin("dict.find", root, 7)
	b.end(child)
	b.end(root)
	lt := tr.merged()
	if lt["bench.batch"].count != 1 || lt["dict.find"].count != 1 {
		t.Fatalf("merged = %+v", lt)
	}
	if s := lt["bench.batch"]; s.self > s.total {
		t.Errorf("self %d exceeds total %d", s.self, s.total)
	}

	path := filepath.Join(t.TempDir(), "spans.tsv")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 3 {
		t.Fatalf("span file has %d lines, want header + 2:\n%s", len(lines), data)
	}
	if f := strings.Split(lines[2], "\t"); f[1] != "0" || f[3] != "7" || f[4] != "dict.find" {
		t.Errorf("child line %q: want parent 0, batch 7, name dict.find", lines[2])
	}
}
