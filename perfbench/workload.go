package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
)

// workload is one traffic mix the benchmark drives against valoisd. The
// keyspace is prefilled before timing, so every workload starts with all
// of its keys present.
type workload struct {
	name    string
	backend string // valoisd -backend
	mode    string // valoisd -mode
	keys    int
	getPct  int     // GET share of operations, in percent
	setPct  int     // SET share; DELETE takes the rest
	zipfS   float64 // Zipf exponent of the key choice; 0 means uniform
	fsync   string  // AOF fsync policy; empty runs valoisd without a log
	setups  int     // set-ups per untraced run; setup_s is their median
	replay  int     // operations per goroutine in the traced layer replay
	why     string
}

// workloads lists the benchmark's workloads with the reason for each.
// BENCHMARK.json carries all but wire-hash, which leaves a quarter of the
// two CPUs idle and whose speed on a 2-vCPU VM drifted with the host:
// ten runs of the same code spread its batch_p50_us by 27% (interquartile
// range over median). It stays here to be run by hand.
var workloads = []workload{
	{
		name: "wire-hash", backend: "hash", mode: "gc", keys: 16384,
		getPct: 50, setPct: 25, setups: 9, replay: 65536,
		why: "The hash is O(1) and gc does no reclamation work, so proto, server batching, client and the socket carry the cost. A dictionary or mm change should leave it flat.",
	},
	{
		name: "skiplist-read", backend: "skiplist", mode: "ebr", keys: 262144,
		getPct: 90, setPct: 5, setups: 5, replay: 65536,
		why: "Finds dominate, with a deep descent per lookup. Skiplist descent, core hops and ebr pinning carry the cost, and wire changes barely move it.",
	},
	{
		name: "skiplist-churn", backend: "skiplist", mode: "rc", keys: 16384,
		getPct: 20, setPct: 40, zipfS: 1.2, setups: 9, replay: 65536,
		why: "The same layer, used for writes under hot-key contention: Insert/Delete, SET's delete-then-insert retry, rc Alloc/Release on the free list. A read-path gain that costs writes shows here.",
	},
	{
		name: "durable-hash", backend: "hash", mode: "gc", keys: 16384,
		getPct: 50, setPct: 25, fsync: "always", setups: 3, replay: 16384,
		why: "It equals wire-hash except for the log, so the difference is the persist layer. This is the only workload where persist does work.",
	},
}

func findWorkload(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// Keys and values. A value is 16 bytes and encodes its key's index, so a
// GET reply can be checked against the key it answers.
const valueLen = 16

func keyName(i int) string { return fmt.Sprintf("k%07d", i) }

func valueFor(i int) []byte { return []byte(fmt.Sprintf("v%015d", i)) }

// keyIndex parses a key made by keyName.
func keyIndex(key string) (int, bool) {
	if len(key) != 8 || key[0] != 'k' {
		return 0, false
	}
	i, err := strconv.Atoi(key[1:])
	return i, err == nil && i >= 0
}

// keyspace holds a workload's keys and values, built once per run.
type keyspace struct {
	keys []string
	vals [][]byte
}

// valid reports whether v is the value the benchmark stores under key.
func (ks *keyspace) valid(key string, v []byte) bool {
	i, ok := keyIndex(key)
	return ok && i < len(ks.vals) && bytes.Equal(v, ks.vals[i])
}

func newKeyspace(n int) *keyspace {
	ks := &keyspace{keys: make([]string, n), vals: make([][]byte, n)}
	for i := range ks.keys {
		ks.keys[i] = keyName(i)
		ks.vals[i] = valueFor(i)
	}
	return ks
}

// Operation verbs.
const (
	opGet = 'g'
	opSet = 's'
	opDel = 'd'
)

// op is one operation of a stream: a verb and a key index.
type op struct {
	verb byte
	key  int32
}

// stream is the seeded operation sequence of one generator goroutine.
// The wire run and the traced replay build the same stream from the same
// seed and goroutine number, so the replay sees the operations the wire
// run sent, in the same order.
type stream struct {
	w    *workload
	rng  *rand.Rand
	zipf *rand.Zipf
	rank []int32 // Zipf rank -> key index, a seeded permutation
}

func newStream(w *workload, seed int64, g int) *stream {
	s := &stream{w: w, rng: rand.New(rand.NewSource(mix64(seed, int64(g)+1)))}
	if w.zipfS > 0 {
		// The permutation depends on the seed only, so both goroutines
		// agree on which keys are hot.
		perm := rand.New(rand.NewSource(mix64(seed, 0))).Perm(w.keys)
		s.rank = make([]int32, len(perm))
		for r, k := range perm {
			s.rank[r] = int32(k)
		}
		s.zipf = rand.NewZipf(s.rng, w.zipfS, 1, uint64(w.keys-1))
	}
	return s
}

// mix64 derives a per-stream source seed from the run seed (SplitMix64
// finalizer), so nearby seeds give unrelated streams.
func mix64(seed, salt int64) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(salt)*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}

func (s *stream) next() op {
	var k int32
	if s.zipf != nil {
		k = s.rank[s.zipf.Uint64()]
	} else {
		k = int32(s.rng.Intn(s.w.keys))
	}
	switch p := s.rng.Intn(100); {
	case p < s.w.getPct:
		return op{opGet, k}
	case p < s.w.getPct+s.w.setPct:
		return op{opSet, k}
	default:
		return op{opDel, k}
	}
}

// take returns the stream's next n operations.
func (s *stream) take(n int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = s.next()
	}
	return ops
}
