package main

// Workload definitions. A run measures dataDraws inputs of its workload,
// each from its own generator seed (drawSeed). The rationale for each
// workload is recorded in WORKLOADS.md.

import (
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"time"

	"clash"
	"clash/internal/broker"
	"clash/internal/core"
	"clash/internal/ilp"
	"clash/internal/query"
	"clash/internal/rng"
	"clash/internal/stats"
	"clash/internal/tpch"
	"clash/internal/tuple"
)

// calibrationSeed generates the stream the initial estimates are sealed
// from. It is fixed, so every draw runs under the same estimates and
// hence the same plan.
const calibrationSeed = 0xca11b

// queryOp adds or removes one query after the stream.
type queryOp struct {
	add    *query.Query
	remove string
}

func (op queryOp) String() string {
	if op.add != nil {
		return "add " + op.add.Name
	}
	return "remove " + op.remove
}

// tpchPool is the generator seed of tpch-mqo's fixed pool of draws.
const tpchPool = 0x7c9a

// drawSeed is the generator seed of draw d of a run. A tpch-mqo draw's
// data alone moves the result latency median by up to 2x (24 µs on one
// draw, 45 µs on another), more than eight draws per run average out,
// so tpch-mqo takes its draws from a fixed pool and the run's seed only
// sets the order they run in. longstate-durable's draws follow the
// seed: its exact zipf counts give every draw the same work.
func drawSeed(workload string, seed uint64, d int) uint64 {
	if workload == "tpch-mqo" {
		return mix(tpchPool + uint64(d))
	}
	return mix(seed + uint64(d)*0x9e3779b97f4a7c15)
}

// spec is one workload: inputs, engine configuration, and load shape.
type spec struct {
	name    string
	cat     *query.Catalog
	queries []*query.Query // installed at start
	extra   []*query.Query // queries that may be added later
	checked []string       // queries compared against the reference
	stream  []rec
	est     *stats.Estimates

	window      time.Duration
	epoch       time.Duration
	opts        core.Options
	incremental bool
	backend     clash.StateBackendKind
	hotBytes    int64
	shards      int // 0: one engine through clash.Start
	wal         bool
	bucketRate  float64 // cluster token bucket, tuples per event-time unit

	rate       float64   // open-loop offered rate, tuples/s
	openTuples int       // open-loop pass length (stream prefix)
	postOps    []queryOp // one cycle of ops that leaves the query set as it was
	postCycles int       // cycles after the traced pass
	setupReps  int       // minimum clash.Start samples per run
}

func newSpec(name string, seed uint64) (*spec, error) {
	switch name {
	case "tpch-mqo":
		return tpchMQO(seed)
	case "longstate-durable":
		return longstateDurable(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want tpch-mqo or longstate-durable)", name)
}

// tpchMQO is the Fig. 7 ten-query workload under one shared plan.
func tpchMQO(seed uint64) (*spec, error) {
	const (
		span = time.Second
		sf   = 0.005
	)
	stream, err := tpchStream(seed, sf, span)
	if err != nil {
		return nil, err
	}
	qs := tpch.Fig7TenQueries()
	sp := &spec{
		name:    "tpch-mqo",
		cat:     tpch.Catalog(),
		queries: qs,
		checked: names(qs),
		stream:  stream,
		window:  100 * time.Millisecond,
		epoch:   100 * time.Millisecond,
		opts: core.Options{
			Solver:                 ilp.Options{MaxNodes: 20_000},
			DeterministicWarmStart: true,
		},
		rate:       10000, // about a fifth of the closed-loop rate, 49k tuples/s on a 2-core VM
		openTuples: len(stream) * 2 / 5,
		setupReps:  3,
	}
	last := qs[len(qs)-1]
	sp.postOps, sp.postCycles = []queryOp{{remove: last.Name}, {add: last}}, 1
	calib, err := tpchStream(calibrationSeed, sf, span)
	if err != nil {
		return nil, err
	}
	sp.est = estimatesFor(sp.cat, qs, calib, span)
	return sp, nil
}

// longstateDurable is a zipf-keyed orders ⋈ lineitem stream through a
// two-shard cluster with tiered state and a write-ahead log.
func longstateDurable(seed uint64) (*spec, error) {
	const (
		tuples = 20_000
		keys   = 16_384
	)
	cat := tpch.Catalog()
	join := func(name string) (*query.Query, error) {
		return query.NewQuery(name, []string{tpch.Orders, tpch.LineItem}, []query.Predicate{
			query.Predicate{
				Left:  query.Attr{Rel: tpch.LineItem, Name: "l_orderkey"},
				Right: query.Attr{Rel: tpch.Orders, Name: "o_orderkey"},
			}.Normalize(),
		})
	}
	q, err := join("q1")
	if err != nil {
		return nil, err
	}
	q2, err := join("q2")
	if err != nil {
		return nil, err
	}
	stream := zipfStream(seed, tuples, keys, 0.9)
	sp := &spec{
		name:        "longstate-durable",
		cat:         cat,
		queries:     []*query.Query{q},
		extra:       []*query.Query{q2},
		checked:     []string{q.Name},
		stream:      stream,
		window:      4096, // event-time units: one tuple per unit
		epoch:       256,
		opts:        core.Options{DeterministicWarmStart: true},
		incremental: true,
		backend:     clash.BackendTiered,
		hotBytes:    128 << 10,
		shards:      2,
		wal:         true,
		bucketRate:  0.95,
		rate:        1500, // about a fifth of the closed-loop rate, 7.5k tuples/s on a 2-core VM
		openTuples:  4000,
		postOps:     []queryOp{{add: q2}, {remove: q2.Name}},
		postCycles:  100,
		setupReps:   21,
	}
	sp.est = estimatesFor(cat, sp.queries, zipfStream(calibrationSeed, tuples, keys, 0.9), time.Duration(tuples))
	return sp, nil
}

// config is the engine configuration a user would pass to clash.Start
// (or as a cluster's shard template); dir holds the pass's files.
func (sp *spec) config(dir string) clash.Config {
	cfg := clash.Config{
		Queries:          sp.queries,
		Catalog:          sp.cat,
		DefaultWindow:    sp.window,
		EpochLength:      sp.epoch,
		IncrementalReopt: sp.incremental,
		Optimizer:        sp.opts,
		InitialEstimates: sp.est,
		StateBackend:     sp.backend,
		StateHotBytes:    sp.hotBytes,
		Substrate:        clash.SubstrateSynchronous,
	}
	if sp.backend == clash.BackendTiered {
		cfg.StateSpillDir = filepath.Join(dir, "spill")
	}
	if sp.wal {
		cfg.WAL = &clash.WALConfig{Dir: filepath.Join(dir, "wal"), NoSync: true}
	}
	return cfg
}

func (sp *spec) bucket() *clash.TokenBucket {
	return &clash.TokenBucket{Rate: sp.bucketRate, Burst: 64, Policy: clash.BlockOnOverload}
}

// tpchStream generates every TPC-H table at the scale factor and
// interleaves the rows by event time over span.
func tpchStream(seed uint64, sf float64, span time.Duration) ([]rec, error) {
	b := broker.New()
	tables := tpch.Tables()
	if err := tpch.FillBroker(b, sf, seed, tuple.Duration(span), tables); err != nil {
		return nil, err
	}
	records := b.Interleave(tables...)
	out := make([]rec, len(records))
	for i, r := range records {
		out[i] = rec{rel: r.Relation, ts: r.TS, vals: r.Vals}
	}
	return out, nil
}

// zipfStream alternates orders and lineitem tuples, one per event-time
// unit. Each relation's order keys follow a zipf law exactly: key k
// occurs in proportion to (k+1)^-s, rounded by largest remainder; the
// seed shuffles where the keys occur and draws the other attributes, so
// seeds differ in placement, not in how much work the keys carry.
func zipfStream(seed uint64, n, keys int, s float64) []rec {
	r := rng.New(seed ^ 0x10e57a7e)
	orderKeys := zipfKeys(r, (n+1)/2, keys, s)
	lineKeys := zipfKeys(r, n/2, keys, s)
	iv := tuple.IntValue
	out := make([]rec, 0, n)
	for i := 0; i < n; i++ {
		ts := tuple.Time(i + 1)
		if i%2 == 0 {
			out = append(out, rec{rel: tpch.Orders, ts: ts, vals: []tuple.Value{
				iv(orderKeys[i/2]), iv(r.Int64n(1000)), tuple.StringValue("O"), iv(1000 + r.Int64n(90000)),
			}})
			continue
		}
		out = append(out, rec{rel: tpch.LineItem, ts: ts, vals: []tuple.Value{
			iv(lineKeys[i/2]), iv(r.Int64n(2000)), iv(r.Int64n(100)), iv(r.Int64n(7)), iv(r.Int64n(50)), tuple.StringValue("O"),
		}})
	}
	return out
}

// zipfKeys returns n keys from [0, keys) with exact zipf(s) counts in a
// shuffled order.
func zipfKeys(r *rng.RNG, n, keys int, s float64) []int64 {
	w := make([]float64, keys)
	var total float64
	for k := range w {
		w[k] = math.Pow(float64(k+1), -s)
		total += w[k]
	}
	counts := make([]int, keys)
	frac := make([]int, keys)
	left := n
	for k := range w {
		exact := float64(n) * w[k] / total
		counts[k] = int(exact)
		left -= counts[k]
		frac[k] = k
		w[k] = exact - float64(counts[k])
	}
	sort.SliceStable(frac, func(i, j int) bool { return w[frac[i]] > w[frac[j]] })
	for _, k := range frac[:left] {
		counts[k]++
	}
	out := make([]int64, 0, n)
	for k, c := range counts {
		for ; c > 0; c-- {
			out = append(out, int64(k))
		}
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// estimatesFor seals statistics over the whole stream, as the adaptive
// controller would per epoch: rates from counts, selectivities from
// reservoir-sample joins.
func estimatesFor(cat *query.Catalog, qs []*query.Query, stream []rec, span time.Duration) *stats.Estimates {
	col := stats.NewCollector(512, 256, 7)
	schemas := map[string]*tuple.Schema{}
	for _, name := range cat.Names() {
		schemas[name] = tuple.NewSchema(cat.Relation(name).QualifiedAttrs()...)
	}
	for _, r := range stream {
		col.Observe(r.rel, tuple.New(schemas[r.rel], r.ts, r.vals...))
	}
	var preds []query.Predicate
	seen := map[string]bool{}
	for _, q := range qs {
		for _, p := range q.Preds {
			if !seen[p.String()] {
				seen[p.String()] = true
				preds = append(preds, p)
			}
		}
	}
	return col.Seal(span, preds)
}

func names(qs []*query.Query) []string {
	out := make([]string, len(qs))
	for i, q := range qs {
		out[i] = q.Name
	}
	return out
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}
