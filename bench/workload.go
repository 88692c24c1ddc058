package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
)

// size fixes everything about a run that is not the seed: store geometry,
// pass count and which op-count column of the specs applies.
type size struct {
	Edge      int  // stores are Edge x Edge
	ChunkBits int  // TransformChunked chunk edge exponent
	Passes    int  // timed passes per workload
	Smoke     bool // the small size the tests run
}

const (
	tileBits   = 4  // 16x16 = 256 coefficients per block
	mergeLevel = 4  // merges are 16x16 dyadic blocks
	mergeEdge  = 16 // 1 << mergeLevel
	numDeltas  = 8  // seeded delta blocks the merge ops draw from

	ingestRows     = 64 // slabs are [ingestRows, 1], appended along dimension 1
	ingestSlabs    = 16 // slabs per NDJSON request = one group commit
	ingestTileBits = 3
)

func fullSize(passes int) size { return size{Edge: 1024, ChunkBits: 6, Passes: passes} }

var smokeSize = size{Edge: 128, ChunkBits: 5, Passes: 2, Smoke: true}

// spec is one workload. The names are the vocabulary later issues use.
type spec struct {
	Name string
	Why  string
	// Ops and SmokeOps are the fixed op counts of one pass.
	Ops, SmokeOps int
	// ColdCache sizes the serve cache to blocks/16; otherwise 2x blocks.
	ColdCache bool
	// MergeEvery makes every n-th op a MergeBlock (1: all of them).
	MergeEvery int
	// SettleEpoch runs one full copy-on-write epoch over both stores at
	// set-up (see newSetup); set where flips and cached reads mix.
	SettleEpoch bool
	Ingest      bool
}

var specs = []spec{
	{
		Name: "query_warm", Ops: 12000, SmokeOps: 400,
		Why: "point and range-sum requests on a cache that holds every block: handler, query kernels, tile reader and cache hits do the work, the device none",
	},
	{
		Name: "query_cold", Ops: 6000, SmokeOps: 300, ColdCache: true,
		Why: "same requests on a cache of 1/16 of the blocks: cache misses, epoch remap, checksum verify and the pread/mapped read legs do most of the work",
	},
	{
		Name: "mixed_rw", Ops: 9000, SmokeOps: 300, MergeEvery: 25, SettleEpoch: true,
		Why: "warm queries with every 25th op a MergeBlock epoch flip on the same goroutine: a read gain bought with write cost, or the reverse, shows in one row",
	},
	{
		Name: "maintain", Ops: 2000, SmokeOps: 40, MergeEvery: 1,
		Why: "MergeBlock only, the paper's own operation: SHIFT-SPLIT kernels, copy-on-write allocation, journal group, table pages and superblock per flip",
	},
	{
		Name: "ingest", Ops: 256, SmokeOps: 8, Ingest: true,
		Why: "NDJSON ingest requests of 16 slabs, one group commit each, into a fresh durable appender: server, journal and device layers without the epoch builder",
	},
}

func specByName(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.Name == name {
			return sp, true
		}
	}
	return spec{}, false
}

func (sp spec) opsPerPass(sz size) int {
	if sz.Smoke {
		return sp.SmokeOps
	}
	return sp.Ops
}

type opKind uint8

const (
	opPoint opKind = iota
	opRange
	opMerge
	opIngest
	numKinds
)

var kindNames = [numKinds]string{"point", "rangesum", "merge", "ingest"}

// op is one operation of a pass. Half of the queries and half of the
// merges go to the standard store, half to the non-standard one.
type op struct {
	Kind  opKind
	Form  int         // 0: standard store, 1: non-standard store
	P, Q  [2]int      // point (P) / range start (P) and extent (Q) / merge block position (P)
	Delta int         // merge: which seeded delta
	Body  []byte      // request body of a query or ingest op
	Slabs [][]float64 // ingest: the slabs' cells, for the oracle
}

// genOps returns the workload's op sequence for one pass; every pass of a
// run replays it. The seed is the only input.
//
// Which ops a workload consists of (which request, against which store, at
// which coordinates) is drawn from a generator fixed per workload; the seed
// decides the order they run in, besides the dataset, the deltas and the
// ingested cells. Every seed therefore drives different inputs through the
// system but asks it for the same amount of work, so the block counts are
// the same for every seed and the timings of two seeds are comparable: a
// spread between seeds is the host's, not the sample's.
func genOps(sp spec, sz size, seed int64) []op {
	h := fnv.New64a()
	h.Write([]byte(sp.Name))
	name := int64(h.Sum64() >> 1)
	geo := rand.New(rand.NewSource(name))
	rng := rand.New(rand.NewSource(seed*1000003 + name))
	ops := make([]op, sp.opsPerPass(sz))
	if sp.Ingest {
		for i := range ops {
			ops[i] = genIngestOp(rng)
		}
		return ops
	}
	half := sz.Edge / 2
	var queries, merges []int // slots by kind; merges keep every MergeEvery-th
	for i := range ops {
		o := &ops[i]
		o.Form = i % 2
		switch {
		case sp.MergeEvery > 0 && (i+1)%sp.MergeEvery == 0:
			o.Kind = opMerge
			o.Form = len(merges) % 2
			o.P = [2]int{geo.Intn(sz.Edge / mergeEdge), geo.Intn(sz.Edge / mergeEdge)}
			o.Delta = geo.Intn(numDeltas)
			merges = append(merges, i)
			continue
		case geo.Intn(2) == 0:
			o.Kind = opPoint
			o.P = [2]int{geo.Intn(sz.Edge), geo.Intn(sz.Edge)}
			o.Body = []byte(fmt.Sprintf(`{"point":[%d,%d]}`, o.P[0], o.P[1]))
		default:
			o.Kind = opRange
			o.P = [2]int{geo.Intn(half), geo.Intn(half)}
			o.Q = [2]int{1 + geo.Intn(half), 1 + geo.Intn(half)}
			o.Body = []byte(fmt.Sprintf(`{"start":[%d,%d],"extent":[%d,%d]}`, o.P[0], o.P[1], o.Q[0], o.Q[1]))
		}
		queries = append(queries, i)
	}
	for _, slots := range [][]int{queries, merges} {
		rng.Shuffle(len(slots), func(a, b int) { ops[slots[a]], ops[slots[b]] = ops[slots[b]], ops[slots[a]] })
	}
	return ops
}

// genIngestOp builds one NDJSON ingest request of ingestSlabs slabs. All
// ingest requests have the same shape; the seed fills in the cells.
func genIngestOp(rng *rand.Rand) op {
	o := op{Kind: opIngest}
	for s := 0; s < ingestSlabs; s++ {
		cells := make([]float64, ingestRows)
		o.Body = append(o.Body, `{"shape":[`...)
		o.Body = strconv.AppendInt(o.Body, ingestRows, 10)
		o.Body = append(o.Body, `,1],"values":[`...)
		for c := range cells {
			cells[c] = float64(rng.Intn(20001)-10000) / 100
			if c > 0 {
				o.Body = append(o.Body, ',')
			}
			o.Body = strconv.AppendFloat(o.Body, cells[c], 'f', -1, 64)
		}
		o.Body = append(o.Body, "]}\n"...)
		o.Slabs = append(o.Slabs, cells)
	}
	return o
}

// hashOps fingerprints an op sequence; result files carry it so two runs
// can be shown to have executed the same work.
func hashOps(ops []op) string {
	h := fnv.New64a()
	var w [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(w[:], uint64(v))
		h.Write(w[:])
	}
	for _, o := range ops {
		put(int(o.Kind))
		put(o.Form)
		put(o.P[0])
		put(o.P[1])
		put(o.Q[0])
		put(o.Q[1])
		put(o.Delta)
		h.Write(o.Body)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
