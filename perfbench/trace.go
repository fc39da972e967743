package main

// The traced run. Spans are recorded in memory at every layer boundary
// of the traced object graph (graph.go) and written out when the run
// ends; a layer's self time is its spans' durations minus the time their
// child spans cover. The ledger splits the traced stream pass's wall
// time into layer self times plus the unattributed remainder, which is
// the load loop itself and anything no span covers.

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sync/atomic"
	"time"

	"clash/internal/core"
	"clash/internal/ilp"
	"clash/internal/runtime"
	"clash/internal/topology"
	"clash/internal/tuple"
)

// Layers, named after the module and call each span wraps.
const (
	lCluster            = iota // cluster.Cluster.Ingest: admission and routing
	lRuntimeIngest             // runtime.Engine.Ingest
	lRuntimePrune              // runtime.Engine.PruneBefore at epoch boundaries
	lRuntimeDrain              // runtime.Engine.Drain
	lStatsObserve              // stats.Collector.Observe (the engine's observer tap)
	lStatsSeal                 // stats.Collector.Seal and stats.Blend per epoch
	lRecoveryLog               // recovery.Manager as the engine's runtime.Journal
	lRecoveryCheckpoint        // recovery.Manager.MaybeCheckpoint
	lSink                      // OnResult callbacks: the benchmark's result check
	lOptimize                  // core.Optimizer.Optimize
	lCompile                   // core.Compile
	lInstall                   // runtime.Engine.Install
	lRetire                    // runtime.Engine.RetireAbsentStores
	lReopt                     // one query add or remove as a whole
	nLayers
)

var layerNames = [nLayers]string{
	"cluster.ingest", "runtime.ingest", "runtime.prune", "runtime.drain",
	"stats.observe", "stats.seal", "recovery.log", "recovery.checkpoint",
	"sink.on_result", "core.optimize", "core.compile", "runtime.install",
	"runtime.retire", "core.reopt",
}

type span struct {
	layer  int32
	parent int32 // index into spans, -1 for a root
	start  int64 // ns since the tracer's base
	end    int64
}

// tracer records spans from the single goroutine that drives the
// synchronous substrate; nested calls form a stack.
type tracer struct {
	base  time.Time
	spans []span
	open  []int32 // stack of open span indices
	cover []int64 // per open span: time covered by its children
	self  [nLayers]int64
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) begin(layer int) {
	parent := int32(-1)
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{layer: int32(layer), parent: parent, start: int64(time.Since(t.base))})
	t.open = append(t.open, int32(len(t.spans)-1))
	t.cover = append(t.cover, 0)
}

func (t *tracer) end() {
	now := int64(time.Since(t.base))
	top := len(t.open) - 1
	s := &t.spans[t.open[top]]
	s.end = now
	d := now - s.start
	t.self[s.layer] += d - t.cover[top]
	t.open, t.cover = t.open[:top], t.cover[:top]
	if top > 0 {
		t.cover[top-1] += d
	}
}

// write stores the spans as tab-separated lines: layer, parent span
// index, start and end in nanoseconds since the run's first span.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "layer\tparent\tstart_ns\tend_ns")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\n", layerNames[s.layer], s.parent, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceRun reports the per-layer metrics of one workload: an untraced
// closed-loop pass through the public API as the baseline, the same pass
// through the traced graph (which must reproduce the baseline's probe
// and result counts exactly), an open-loop pass for the generator's
// lateness, the cost-model rank check, and the asynchronous replay.
func traceRun(sp *spec, exp map[string]expected, work string, seed uint64) (*report, error) {
	r := &report{}
	n := len(sp.stream)
	base, err := runPass(sp, exp, startFacade, filepath.Join(work, "base"), closedLoop, n, 0, nil)
	if err != nil {
		return nil, fmt.Errorf("untraced pass: %w", err)
	}
	r.add(base)

	tr := newTracer()
	var sys *tracedSystem
	start := startTraced(tr)
	capture := func(s *spec, dir string) (sut, error) {
		st, err := start(s, dir)
		if err == nil {
			sys = st.(*tracedSystem)
		}
		return st, err
	}
	var before, after [nLayers]int64
	var gc0, gc1 goruntime.MemStats
	var streamWall time.Duration
	var t0 time.Time
	var gauges []runtime.TaskGauge
	var snapEnd runtime.Snapshot
	hooks := &streamHooks{
		begin: func() {
			goruntime.ReadMemStats(&gc0)
			before = tr.self
			t0 = time.Now()
		},
		end: func() {
			streamWall = time.Since(t0)
			after = tr.self
			goruntime.ReadMemStats(&gc1)
			snapEnd = sys.Snapshot()
			for _, sh := range sys.shards {
				gauges = append(gauges, sh.eng.TaskGauges()...)
			}
		},
	}
	traced, err := runPass(sp, exp, capture, filepath.Join(work, "traced"), closedLoop, n, sp.postCycles, hooks)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	r.add(traced)
	if traced.snap.ProbeSent != base.snap.ProbeSent || traced.snap.Results != base.snap.Results {
		r.mismatch = append(r.mismatch, fmt.Sprintf("traced graph diverged from clash.Start: %d probe tuples, %d results; untraced %d, %d",
			traced.snap.ProbeSent, traced.snap.Results, base.snap.ProbeSent, base.snap.Results))
	}
	if err := tr.write(filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.tsv", sp.name, seed))); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}

	open, err := runPass(sp, exp, startFacade, filepath.Join(work, "open"), openLoop, sp.openTuples, 0, nil)
	if err != nil {
		return nil, fmt.Errorf("open-loop pass: %w", err)
	}
	r.add(open)

	rank, shared, err := rankCheck(sp, exp, filepath.Join(work, "rank"))
	if err != nil {
		return nil, fmt.Errorf("rank check: %w", err)
	}
	missing, err := asyncMissing(sp, exp, shared, filepath.Join(work, "async"))
	if err != nil {
		return nil, fmt.Errorf("async replay: %w", err)
	}

	// Ledger over the traced stream pass.
	perTuple := func(ns int64) float64 { return float64(ns) / float64(n) }
	var self [nLayers]int64
	var attributed int64
	for l := range self {
		self[l] = after[l] - before[l]
		attributed += self[l]
	}
	wallNS := streamWall.Nanoseconds()
	fmt.Printf("  ledger over the traced stream pass (%d tuples, %v):\n", n, streamWall.Round(time.Millisecond))
	for l, ns := range self {
		if ns != 0 {
			fmt.Printf("    %-22s %12.1f ns/tuple %6.1f%%\n", layerNames[l], perTuple(ns), 100*float64(ns)/float64(wallNS))
		}
	}
	fmt.Printf("    %-22s %12.1f ns/tuple %6.1f%%\n", "unattributed", perTuple(wallNS-attributed), 100*float64(wallNS-attributed)/float64(wallNS))

	var cost runtime.CostObservations
	for _, g := range gauges {
		cost.ProbeNanos += g.ProbeNanos
		cost.InsertNanos += g.InsertNanos
		cost.PruneNanos += g.PruneNanos
	}
	var ckpt []float64
	var walBytes, ckptBytes, ckpts int64
	var planCost float64
	var solves, limited, setupNodes int
	var memoHits, memoMiss, cacheHits, cacheMiss uint64
	var optimizeS float64
	var reoptMS, compileMS, installMS []float64
	for i, sh := range sys.shards {
		for _, d := range sh.ckpts {
			ckpt = append(ckpt, float64(d)/1e6)
		}
		if sh.mgr != nil {
			st := sh.mgr.Stats()
			walBytes += st.WALBytes
			ckptBytes += st.CheckpointBytes
			ckpts += int64(st.Checkpoints)
		}
		c := sh.ctl
		if i == 0 {
			for _, p := range c.setupPlans {
				planCost += p.Objective
			}
		}
		solves += c.solves
		limited += c.limited
		setupNodes += c.setupNodes
		if c.reopt != nil {
			st := c.reopt.Stats()
			memoHits, memoMiss = memoHits+st.MemoHits, memoMiss+st.MemoMisses
			cacheHits, cacheMiss = cacheHits+st.CacheHits, cacheMiss+st.CacheMisses
		}
		optimizeS += c.setupOptimize.Seconds()
		compileMS = append(compileMS, millis(c.compile)...)
		installMS = append(installMS, millis(c.install)...)
	}
	for _, s := range tr.spans {
		if s.layer == lReopt {
			reoptMS = append(reoptMS, float64(s.end-s.start)/1e6)
		}
	}
	var imbalance, throttled float64
	if sys.cl != nil {
		imbalance = sys.cl.Metrics().Imbalance
		throttled = float64(sys.bucket.Throttled())
	}
	coldTotal := snapEnd.ColdProbeHits + snapEnd.ColdProbeMisses
	baseWall := base.wall.Seconds()

	m := func(name, unit string, v float64, samples int) metric { return metric{name, unit, v, samples} }
	r.metrics = []metric{
		m("core.optimize_s", "s", optimizeS, len(sys.shards)),
		m("ilp.nodes", "count", float64(setupNodes), len(sys.shards)),
		m("ilp.budget_exhausted_ratio", "ratio", ratio(float64(limited), float64(solves)), solves),
		m("core.reopt_ms", "ms", median(reoptMS), len(reoptMS)),
		m("mir.memo_hit_ratio", "ratio", ratio(float64(memoHits), float64(memoHits+memoMiss)), int(memoHits+memoMiss)),
		m("ilp.cache_hit_ratio", "ratio", ratio(float64(cacheHits), float64(cacheHits+cacheMiss)), int(cacheHits+cacheMiss)),
		m("core.compile_ms", "ms", median(compileMS), len(compileMS)),
		m("runtime.install_ms", "ms", median(installMS), len(installMS)),
		m("runtime.retired_tuples", "count", float64(traced.postSnap.RetiredTuples), 1),
		m("core.plan_cost", "probe-tuples/s", planCost, 1),
		m("runtime.ns_per_tuple", "ns", perTuple(self[lRuntimeIngest]+self[lRuntimePrune]+self[lRuntimeDrain]+self[lInstall]+self[lRetire]), n),
		m("runtime.ingest_self_ns_per_tuple", "ns", perTuple(self[lRuntimeIngest]), n),
		m("runtime.probe_tuples", "count", float64(snapEnd.ProbeSent), 1),
		m("runtime.messages", "count", float64(snapEnd.Messages), 1),
		m("runtime.probe_ns_per_tuple", "ns", perTuple(cost.ProbeNanos), n),
		m("runtime.insert_ns_per_tuple", "ns", perTuple(cost.InsertNanos), n),
		m("runtime.prune_ns_per_tuple", "ns", perTuple(cost.PruneNanos), n),
		m("runtime.results", "count", float64(snapEnd.Results), 1),
		m("runtime.cold_probe_hits", "count", float64(snapEnd.ColdProbeHits), 1),
		m("runtime.cold_skip_ratio", "ratio", ratio(float64(snapEnd.ColdProbeMisses), float64(coldTotal)), int(coldTotal)),
		m("runtime.demoted_epochs", "count", float64(snapEnd.DemotedEpochs), 1),
		m("runtime.promoted_epochs", "count", float64(snapEnd.PromotedEpochs), 1),
		m("runtime.spilled_mib", "MiB", float64(snapEnd.SpilledBytes)/(1<<20), 1),
		m("runtime.state_mib", "MiB", float64(snapEnd.StoreBytes)/(1<<20), 1),
		m("runtime.index_mib", "MiB", float64(snapEnd.IndexBytes)/(1<<20), 1),
		m("runtime.async_missing_results", "ratio", missing, 1),
		m("stats.observe_ns_per_tuple", "ns", perTuple(self[lStatsObserve]), n),
		m("stats.seal_ns_per_tuple", "ns", perTuple(self[lStatsSeal]), n),
		m("recovery.log_ns_per_tuple", "ns", perTuple(self[lRecoveryLog]), n),
		m("recovery.checkpoint_ns_per_tuple", "ns", perTuple(self[lRecoveryCheckpoint]), n),
		m("recovery.wal_mib", "MiB", float64(walBytes)/(1<<20), 1),
		m("recovery.checkpoints", "count", float64(ckpts), 1),
		m("recovery.checkpoint_ms_p50", "ms", median(ckpt), len(ckpt)),
		m("recovery.checkpoint_ms_max", "ms", quantile(ckpt, 1), len(ckpt)),
		m("recovery.checkpoint_mib", "MiB", float64(ckptBytes)/(1<<20), 1),
		m("cluster.route_self_ns_per_tuple", "ns", perTuple(self[lCluster]), n),
		m("cluster.imbalance", "ratio", imbalance, 1),
		m("cluster.throttled", "count", throttled, 1),
		m("sink.ns_per_tuple", "ns", perTuple(self[lSink]), n),
		m("gc.cycles", "count", float64(gc1.NumGC-gc0.NumGC), 1),
		m("gc.pause_ms", "ms", float64(gc1.PauseTotalNs-gc0.PauseTotalNs)/1e6, int(gc1.NumGC-gc0.NumGC)),
		m("load.lag_p99_us", "us", quantile(open.lagUS, 0.99), len(open.lagUS)),
		m("load.result_latency_p90_us", "us", quantile(open.latUS, 0.90), len(open.latUS)),
		m("load.result_latency_p99_us", "us", quantile(open.latUS, 0.99), len(open.latUS)),
		m("ledger.wall_ns_per_tuple", "ns", perTuple(wallNS), n),
		m("ledger.unattributed_ns_per_tuple", "ns", perTuple(wallNS-attributed), n),
		m("trace.overhead_ratio", "ratio", streamWall.Seconds()/baseWall-1, 2),
	}
	for _, rk := range rank {
		r.metrics = append(r.metrics,
			m("rank."+rk.name+".plan_cost", "probe-tuples/s", rk.cost, 1),
			m("rank."+rk.name+".probe_tuples", "count", float64(rk.probes), 1),
			m("rank."+rk.name+".ns_per_tuple", "ns", rk.nsPerTuple, n))
		if rk.mismatch != "" {
			r.mismatch = append(r.mismatch, "rank "+rk.name+": "+rk.mismatch)
		}
	}
	return r, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// rankRow is one plan of the cost-model rank check.
type rankRow struct {
	name       string
	cost       float64 // modeled probe load (the optimizer's objective)
	probes     int64   // measured probe tuples
	nsPerTuple float64 // measured engine wall time per ingested tuple
	mismatch   string
}

// rankCheck runs the workload's initial queries under three plans — the
// workload's own optimizer options, a 200-node budget, and per-query
// optimization compiled with sharing — on one engine each, and reports
// modeled cost beside measured work. Reported, not gated. It also
// returns the compiled topology of the workload's own shared plan.
func rankCheck(sp *spec, exp map[string]expected, dir string) ([]rankRow, *topology.Config, error) {
	small := sp.opts
	small.Solver = ilp.Options{MaxNodes: 200}
	variants := []struct {
		name string
		plan func() ([]*core.Plan, error)
	}{
		{"shared", func() ([]*core.Plan, error) {
			p, err := core.NewOptimizer(sp.opts).Optimize(sp.queries, sp.est)
			return []*core.Plan{p}, err
		}},
		{"small_budget", func() ([]*core.Plan, error) {
			p, err := core.NewOptimizer(small).Optimize(sp.queries, sp.est)
			return []*core.Plan{p}, err
		}},
		{"individual", func() ([]*core.Plan, error) {
			return core.NewOptimizer(sp.opts).OptimizeIndividually(sp.queries, sp.est)
		}},
	}
	var rows []rankRow
	var shared *topology.Config
	for i, v := range variants {
		plans, err := v.plan()
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", v.name, err)
		}
		row := rankRow{name: v.name}
		for _, p := range plans {
			row.cost += p.Objective
		}
		topo, err := core.Compile(plans, core.CompileOptions{Shared: true, Parallelism: sp.opts.Parallelism()})
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", v.name, err)
		}
		if i == 0 {
			shared = topo
		}
		snap, wall, got, err := replay(sp, topo, filepath.Join(dir, fmt.Sprint(i)), runtime.SubstrateSynchronous)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", v.name, err)
		}
		row.probes = snap.ProbeSent
		row.nsPerTuple = float64(wall.Nanoseconds()) / float64(len(sp.stream))
		if bad := checkTallies(sp, exp, got, len(sp.stream)); len(bad) > 0 {
			row.mismatch = bad[0]
		}
		rows = append(rows, row)
	}
	return rows, shared, nil
}

// asyncMissing replays the stream over the workload's compiled topology
// on the flow-controlled substrate and returns the share of the checked
// queries' reference results it did not deliver. Reported, not gated.
func asyncMissing(sp *spec, exp map[string]expected, topo *topology.Config, dir string) (float64, error) {
	_, _, got, err := replay(sp, topo, dir, runtime.SubstrateFlow)
	if err != nil {
		return 0, err
	}
	var want, have int64
	for _, name := range sp.checked {
		c, _ := exp[name].upTo(len(sp.stream))
		want += c
		have += got[name].count
	}
	return ratio(float64(want-have), float64(want)), nil
}

// replay drives the whole stream through one engine with the topology
// installed directly, pruning at epoch boundaries as the controller
// would (synchronous substrate only: pruning races probes elsewhere).
func replay(sp *spec, topo *topology.Config, dir string, sub runtime.SubstrateKind) (runtime.Snapshot, time.Duration, map[string]*tally, error) {
	cfg := runtime.Config{
		Catalog:       sp.cat,
		DefaultWindow: sp.window,
		EpochLength:   sp.epoch,
		StateBackend:  sp.backend,
		StateHotBytes: sp.hotBytes,
		Substrate:     sub,
	}
	if sp.backend == runtime.BackendTiered {
		cfg.StateSpillDir = filepath.Join(dir, "spill")
		if err := os.MkdirAll(cfg.StateSpillDir, 0o755); err != nil {
			return runtime.Snapshot{}, 0, nil, err
		}
		defer os.RemoveAll(dir)
	}
	eng := runtime.New(cfg)
	defer eng.Stop()
	if err := eng.Install(topo, 0); err != nil {
		return runtime.Snapshot{}, 0, nil, err
	}
	got := map[string]*tally{}
	var counts []*atomic.Int64
	h := newResultHasher()
	for _, name := range sp.checked {
		t := &tally{}
		got[name] = t
		c := &atomic.Int64{}
		counts = append(counts, c)
		if sub == runtime.SubstrateSynchronous {
			eng.OnResult(name, func(r *tuple.Tuple) {
				t.count++
				t.digest += mix(h.hash(r))
			})
		} else {
			eng.OnResult(name, func(*tuple.Tuple) { c.Add(1) })
		}
	}
	var maxWin time.Duration
	for _, rel := range sp.cat.Names() {
		maxWin = max(maxWin, sp.cat.Window(rel, sp.window))
	}
	lastEpoch := int64(0)
	t0 := time.Now()
	for _, in := range sp.stream {
		if err := eng.Ingest(in.rel, in.ts, in.vals...); err != nil {
			return runtime.Snapshot{}, 0, nil, err
		}
		if sub == runtime.SubstrateSynchronous && sp.epoch > 0 && maxWin > 0 {
			if ep := eng.Epoch(eng.Watermark()); ep > lastEpoch {
				lastEpoch = ep
				eng.PruneBefore(eng.Watermark() - tuple.Time(maxWin))
			}
		}
	}
	eng.Drain()
	wall := time.Since(t0)
	if sub != runtime.SubstrateSynchronous {
		for i, name := range sp.checked {
			got[name].count = counts[i].Load()
		}
	}
	return eng.Snapshot(), wall, got, eng.Failure()
}
