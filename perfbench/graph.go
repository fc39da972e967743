package main

// The traced object graph: the same engines, statistics collectors,
// durability managers and front door that clash.Start and
// clash.NewCluster assemble, built from the internal packages' exported
// constructors so that every call into a layer can be timed from here.
// The facade's epoch controller is replayed step for step (replica) for
// the static configurations the workloads use, because its optimize,
// compile and install calls are otherwise out of reach.

import (
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"time"

	"clash/internal/cluster"
	"clash/internal/core"
	"clash/internal/ilp"
	"clash/internal/query"
	"clash/internal/recovery"
	"clash/internal/runtime"
	"clash/internal/stats"
	"clash/internal/topology"
	"clash/internal/tuple"
)

// tracedShard mirrors one facade Engine.
type tracedShard struct {
	tr    *tracer
	eng   *runtime.Engine
	ctl   *replica
	mgr   *recovery.Manager // nil without WAL
	store *recovery.DirStorage
	ckpts []time.Duration // MaybeCheckpoint calls that checkpointed
}

// newTracedShard follows clash.Start: a statistics collector feeding the
// engine's observer tap, the durability manager as the engine's journal,
// and the controller's initial optimize, compile and install.
func newTracedShard(sp *spec, tr *tracer, dir string) (*tracedShard, error) {
	s := &tracedShard{tr: tr}
	col := stats.NewCollector(256, 128, 1)
	cfg := runtime.Config{
		Catalog:       sp.cat,
		DefaultWindow: sp.window,
		EpochLength:   sp.epoch,
		StateBackend:  sp.backend,
		StateHotBytes: sp.hotBytes,
		Substrate:     runtime.SubstrateSynchronous,
		MeasuredCosts: true, // per-task cost meters: they time the work, never change it
		Observer: func(rel string, t *tuple.Tuple) {
			tr.begin(lStatsObserve)
			col.Observe(rel, t)
			tr.end()
		},
	}
	if sp.backend == runtime.BackendTiered {
		cfg.StateSpillDir = filepath.Join(dir, "spill")
		if err := os.MkdirAll(cfg.StateSpillDir, 0o755); err != nil {
			return nil, err
		}
	}
	if sp.wal {
		st, err := recovery.NewDirStorage(filepath.Join(dir, "wal"), false)
		if err != nil {
			return nil, err
		}
		mgr, err := recovery.NewManager(st, recovery.Config{})
		if err != nil {
			st.Close()
			return nil, err
		}
		s.mgr, s.store = mgr, st
		cfg.Journal = tracedJournal{tr, mgr}
	}
	s.eng = runtime.New(cfg)
	s.ctl = newReplica(sp, tr, s.eng, col)
	if err := s.ctl.replan(0); err != nil {
		s.close()
		return nil, err
	}
	if s.mgr != nil {
		s.mgr.Bind(s.eng)
	}
	return s, nil
}

// Ingest follows clash.Engine.Ingest: engine, epoch tick, checkpoint.
func (s *tracedShard) Ingest(rel string, ts tuple.Time, vals ...tuple.Value) error {
	s.tr.begin(lRuntimeIngest)
	err := s.eng.Ingest(rel, ts, vals...)
	s.tr.end()
	if err != nil {
		return err
	}
	if err := s.ctl.tick(); err != nil {
		return err
	}
	if s.mgr == nil {
		return nil
	}
	before := s.mgr.Stats().Checkpoints
	t0 := time.Now()
	s.tr.begin(lRecoveryCheckpoint)
	err = s.mgr.MaybeCheckpoint()
	s.tr.end()
	if s.mgr.Stats().Checkpoints != before {
		s.ckpts = append(s.ckpts, time.Since(t0))
	}
	return err
}

func (s *tracedShard) Drain() {
	s.tr.begin(lRuntimeDrain)
	s.eng.Drain()
	s.tr.end()
}

func (s *tracedShard) Failure() error             { return s.eng.Failure() }
func (s *tracedShard) Snapshot() runtime.Snapshot { return s.eng.Snapshot() }
func (s *tracedShard) Pressure() runtime.Pressure { return s.eng.Pressure() }

func (s *tracedShard) OnResult(name string, fn func(*tuple.Tuple)) {
	s.eng.OnResult(name, func(t *tuple.Tuple) {
		s.tr.begin(lSink)
		fn(t)
		s.tr.end()
	})
}

// close follows clash.Engine.Close: final checkpoint, stop, release.
func (s *tracedShard) close() error {
	var first error
	if s.mgr != nil {
		first = s.mgr.Close()
	}
	s.eng.Stop()
	if s.store != nil {
		if err := s.store.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// tracedJournal times the engine's write-ahead calls.
type tracedJournal struct {
	tr  *tracer
	mgr *recovery.Manager
}

func (j tracedJournal) LogIngest(rel string, ts tuple.Time, vals []tuple.Value, seq uint64) error {
	j.tr.begin(lRecoveryLog)
	defer j.tr.end()
	return j.mgr.LogIngest(rel, ts, vals, seq)
}

func (j tracedJournal) LogPrune(cut tuple.Time) error {
	j.tr.begin(lRecoveryLog)
	defer j.tr.end()
	return j.mgr.LogPrune(cut)
}

func (j tracedJournal) LogEvict(store topology.StoreID, part int, epoch int64, tuples int, seq uint64) error {
	j.tr.begin(lRecoveryLog)
	defer j.tr.end()
	return j.mgr.LogEvict(store, part, epoch, tuples, seq)
}

// tracedSystem is the traced counterpart of the facade engine or cluster.
type tracedSystem struct {
	tr     *tracer
	shards []*tracedShard
	cl     *cluster.Cluster // nil for a single engine
	bucket *cluster.TokenBucket
}

// startTraced builds the workload's object graph with every layer
// boundary wrapped.
func startTraced(tr *tracer) starter {
	return func(sp *spec, dir string) (sut, error) {
		sys := &tracedSystem{tr: tr}
		n := sp.shards
		if n == 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			sdir := dir
			if sp.shards > 0 {
				sdir = filepath.Join(dir, fmt.Sprintf("shard-%d", i))
			}
			s, err := newTracedShard(sp, tr, sdir)
			if err != nil {
				sys.Close()
				return nil, fmt.Errorf("shard %d: %w", i, err)
			}
			sys.shards = append(sys.shards, s)
		}
		if sp.shards == 0 {
			return sys, nil
		}
		shards := make([]cluster.Shard, n)
		for i, s := range sys.shards {
			shards[i] = s
		}
		sys.bucket = sp.bucket()
		cl, err := cluster.New(cluster.Config{Queries: sp.queries, Catalog: sp.cat, Admission: sys.bucket}, shards)
		if err != nil {
			sys.Close()
			return nil, err
		}
		sys.cl = cl
		return sys, nil
	}
}

func (s *tracedSystem) Ingest(rel string, ts tuple.Time, vals ...tuple.Value) error {
	if s.cl == nil {
		return s.shards[0].Ingest(rel, ts, vals...)
	}
	s.tr.begin(lCluster)
	defer s.tr.end()
	return s.cl.Ingest(rel, ts, vals...)
}

func (s *tracedSystem) OnResult(name string, fn func(*tuple.Tuple)) {
	if s.cl == nil {
		s.shards[0].OnResult(name, fn)
		return
	}
	s.cl.OnResult(name, fn)
}

func (s *tracedSystem) AddQuery(q *query.Query) error {
	s.tr.begin(lReopt)
	defer s.tr.end()
	for _, sh := range s.shards {
		if err := sh.ctl.addQuery(q); err != nil {
			return err
		}
	}
	return nil
}

func (s *tracedSystem) RemoveQuery(name string) error {
	s.tr.begin(lReopt)
	defer s.tr.end()
	for _, sh := range s.shards {
		if err := sh.ctl.removeQuery(name); err != nil {
			return err
		}
	}
	return nil
}

func (s *tracedSystem) Drain() {
	for _, sh := range s.shards {
		sh.Drain()
	}
}

func (s *tracedSystem) Snapshot() runtime.Snapshot {
	snaps := make([]runtime.Snapshot, len(s.shards))
	for i, sh := range s.shards {
		snaps[i] = sh.eng.Snapshot()
	}
	return sumSnapshots(snaps)
}

func (s *tracedSystem) Dropped() int64 {
	d := s.Snapshot().ShedTuples
	if s.cl != nil {
		d += s.cl.Metrics().AdmissionDrops
	}
	return d
}

func (s *tracedSystem) Close() error {
	var first error
	for _, sh := range s.shards {
		sh.Drain()
		if err := sh.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// replica replays runtime.Controller for a static (non-adaptive),
// shared configuration: statistics sealing and window pruning at epoch
// boundaries, and re-planning with MIR warm-up on query arrival and
// expiry. It never calibrates the cost model, so metering the engine's
// costs cannot change its plans.
type replica struct {
	tr      *tracer
	eng     *runtime.Engine
	col     *stats.Collector
	opts    core.Options
	reopt   *core.Reopt
	queries map[string]*query.Query
	order   []string
	est     *stats.Estimates
	epoch   time.Duration
	maxWin  time.Duration

	lastSealed int64
	reoptims   int
	lastSig    string
	liveSince  map[string]int64

	setupPlans       []*core.Plan // installed at start
	solves, limited  int          // optimizer runs, and those that hit the node budget
	setupNodes       int
	setupOptimize    time.Duration
	compile, install []time.Duration
}

func newReplica(sp *spec, tr *tracer, eng *runtime.Engine, col *stats.Collector) *replica {
	c := &replica{
		tr: tr, eng: eng, col: col, opts: sp.opts,
		queries:    map[string]*query.Query{},
		est:        sp.est.Clone(),
		epoch:      sp.epoch,
		lastSealed: -1,
		liveSince:  map[string]int64{},
	}
	if sp.incremental {
		c.reopt = core.NewReopt()
	}
	for _, q := range sp.queries {
		c.queries[q.Name] = q
		c.order = append(c.order, q.Name)
	}
	for _, rel := range sp.cat.Names() {
		if w := sp.cat.Window(rel, sp.window); w > c.maxWin {
			c.maxWin = w
		}
	}
	return c
}

// tick mirrors Controller.Tick with Static set.
func (c *replica) tick() error {
	if c.epoch <= 0 {
		return nil
	}
	cur := c.eng.Epoch(c.eng.Watermark())
	if cur <= c.lastSealed {
		return nil
	}
	c.tr.begin(lStatsSeal)
	fresh := c.col.Seal(c.epoch, c.allPreds())
	c.est = stats.Blend(c.est, fresh, 0.5)
	c.tr.end()
	c.lastSealed = cur
	if c.maxWin > 0 {
		c.tr.begin(lRuntimePrune)
		c.eng.PruneBefore(c.eng.Watermark() - tuple.Time(c.maxWin))
		c.tr.end()
	}
	return nil
}

func (c *replica) allPreds() []query.Predicate {
	names := append([]string(nil), c.order...)
	sort.Strings(names)
	var preds []query.Predicate
	seen := map[string]bool{}
	for _, n := range names {
		for _, p := range c.queries[n].Preds {
			if !seen[p.String()] {
				seen[p.String()] = true
				preds = append(preds, p)
			}
		}
	}
	return preds
}

func (c *replica) addQuery(q *query.Query) error {
	if _, dup := c.queries[q.Name]; dup {
		return fmt.Errorf("query %q already installed", q.Name)
	}
	c.queries[q.Name] = q
	c.order = append(c.order, q.Name)
	return c.replan(c.nextEpoch())
}

func (c *replica) removeQuery(name string) error {
	if _, ok := c.queries[name]; !ok {
		return fmt.Errorf("query %q not installed", name)
	}
	delete(c.queries, name)
	kept := c.order[:0]
	for _, n := range c.order {
		if n != name {
			kept = append(kept, n)
		}
	}
	c.order = kept
	return c.replan(c.nextEpoch())
}

func (c *replica) nextEpoch() int64 {
	if c.epoch <= 0 {
		return 0
	}
	return c.eng.Epoch(c.eng.Watermark()) + 1
}

// replan mirrors Controller.reoptimizeLocked.
func (c *replica) replan(epoch int64) error {
	qs := make([]*query.Query, 0, len(c.order))
	for _, n := range c.order {
		qs = append(qs, c.queries[n])
	}
	if c.reopt != nil {
		c.reopt.Advance()
	}
	optimize := func(elig func(string) bool) ([]*core.Plan, error) {
		opts := c.opts
		opts.MIREligible = elig
		if c.reopt != nil {
			opts.Reopt = c.reopt
			if opts.Solver.Parallel == 0 {
				opts.Solver.Parallel = parallelSolvers()
			}
		}
		t0 := time.Now()
		c.tr.begin(lOptimize)
		p, err := core.NewOptimizer(opts).Optimize(qs, c.est)
		c.tr.end()
		if c.reoptims == 0 {
			c.setupOptimize += time.Since(t0)
		}
		if err != nil {
			return nil, err
		}
		c.solves++
		if p.Stats.Status == ilp.Limit {
			c.limited++
		}
		if c.reoptims == 0 {
			c.setupNodes += p.Stats.Nodes
		}
		return []*core.Plan{p}, nil
	}
	plans, err := optimize(nil)
	if err != nil {
		return err
	}
	initial := c.reoptims == 0
	warmup := c.warmupEpochs()
	mature := func(key string) bool {
		if initial || c.epoch <= 0 {
			return true
		}
		l, ok := c.liveSince[key]
		return ok && (l == 0 || l+warmup <= epoch)
	}
	immature := map[string]bool{}
	for _, p := range plans {
		for _, key := range p.UsedStores() {
			if isComposite(key) && !mature(key) {
				immature[key] = true
			}
		}
	}
	var warming []*core.Plan
	if len(immature) > 0 {
		warmPlan := warmingPlan(plans, immature, mature)
		if plans, err = optimize(mature); err != nil {
			return err
		}
		if warmPlan != nil {
			warming = []*core.Plan{warmPlan}
		}
	}
	sig := planSignature(plans, warming)
	if c.reoptims > 0 && sig == c.lastSig {
		return nil
	}
	t0 := time.Now()
	c.tr.begin(lCompile)
	topo, err := core.Compile(append(append([]*core.Plan{}, plans...), warming...), core.CompileOptions{
		Epoch: epoch, Shared: true, Parallelism: c.opts.Parallelism(),
	})
	c.tr.end()
	c.compile = append(c.compile, time.Since(t0))
	if err != nil {
		return err
	}
	t0 = time.Now()
	c.tr.begin(lInstall)
	err = c.eng.Install(topo, epoch)
	c.tr.end()
	c.install = append(c.install, time.Since(t0))
	if err != nil {
		return err
	}
	if c.reoptims > 0 {
		c.tr.begin(lRetire)
		c.eng.RetireAbsentStores()
		c.tr.end()
	}
	c.lastSig = sig
	if initial {
		c.setupPlans = plans
	}
	present := map[string]bool{}
	for _, s := range topo.Stores {
		if !s.Base() {
			present[s.MIRKey] = true
		}
	}
	for key := range c.liveSince {
		if !present[key] {
			delete(c.liveSince, key)
		}
	}
	for key := range present {
		if _, ok := c.liveSince[key]; !ok {
			if initial {
				c.liveSince[key] = 0
			} else {
				c.liveSince[key] = epoch
			}
		}
	}
	c.reoptims++
	return nil
}

func (c *replica) warmupEpochs() int64 {
	if c.epoch <= 0 {
		return 0
	}
	if c.maxWin <= 0 {
		return 1 << 30
	}
	return int64((c.maxWin+c.epoch-1)/c.epoch) + 1
}

func parallelSolvers() int {
	return min(max(goruntime.GOMAXPROCS(0), 1), 8)
}

func isComposite(mirKey string) bool {
	for i := 0; i < len(mirKey); i++ {
		if mirKey[i] == '+' {
			return true
		}
	}
	return false
}

// warmingPlan mirrors the controller's: the feeding orders of exactly
// the immature stores, each usable only if it probes mature state.
func warmingPlan(plans []*core.Plan, immature map[string]bool, mature func(string) bool) *core.Plan {
	out := &core.Plan{Partitions: map[string]query.Attr{}}
	for _, p := range plans {
		for _, d := range p.Selected {
			if d.ForMIR == "" || !immature[d.ForMIR] {
				continue
			}
			usable := true
			for i, e := range d.Elems {
				if i > 0 && !e.MIR.IsBase() && !mature(e.MIR.Key()) {
					usable = false
					break
				}
			}
			if usable {
				out.Selected = append(out.Selected, d)
			}
		}
		for k, v := range p.Partitions {
			out.Partitions[k] = v
		}
	}
	if len(out.Selected) == 0 {
		return nil
	}
	return out
}

func planSignature(plans, warming []*core.Plan) string {
	s := ""
	for _, p := range plans {
		s += p.String() + "\n"
	}
	s += "--warming--\n"
	for _, p := range warming {
		s += p.String() + "\n"
	}
	return s
}
