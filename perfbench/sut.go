package main

// The system under test, as a user of the public API sees it: one engine
// from clash.Start or a cluster from clash.NewCluster. The traced run
// builds the same object graph from the internal packages (graph.go) and
// satisfies the same interface.

import (
	"fmt"
	"os"

	"clash"
	"clash/internal/query"
	"clash/internal/runtime"
	"clash/internal/tuple"
)

type sut interface {
	Ingest(rel string, ts tuple.Time, vals ...tuple.Value) error
	OnResult(queryName string, fn func(*tuple.Tuple))
	Drain()
	// Snapshot sums the runtime counters over every engine.
	Snapshot() runtime.Snapshot
	// Dropped counts tuples shed by flow control or refused by admission.
	Dropped() int64
	Close() error
}

// startFacade builds the workload through the public API.
func startFacade(sp *spec, dir string) (sut, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cfg := sp.config(dir)
	if cfg.StateSpillDir != "" {
		if err := os.MkdirAll(cfg.StateSpillDir, 0o755); err != nil {
			return nil, err
		}
	}
	if sp.shards == 0 {
		e, err := clash.Start(cfg)
		if err != nil {
			return nil, err
		}
		return engineSUT{e}, nil
	}
	c, err := clash.NewCluster(clash.ClusterConfig{Shards: sp.shards, Engine: cfg, Admission: sp.bucket()})
	if err != nil {
		return nil, err
	}
	return clusterSUT{c}, nil
}

type engineSUT struct{ *clash.Engine }

func (s engineSUT) Dropped() int64 { return s.Metrics().ShedTuples }

type clusterSUT struct{ *clash.Cluster }

func (s clusterSUT) Snapshot() runtime.Snapshot {
	snaps := make([]runtime.Snapshot, s.Shards())
	for i := range snaps {
		snaps[i] = s.Shard(i).Snapshot()
	}
	return sumSnapshots(snaps)
}

func (s clusterSUT) Dropped() int64 {
	return s.Metrics().AdmissionDrops + s.Snapshot().ShedTuples
}

// sumSnapshots adds the counters the benchmark reads.
func sumSnapshots(snaps []runtime.Snapshot) runtime.Snapshot {
	var out runtime.Snapshot
	for _, s := range snaps {
		out.Ingested += s.Ingested
		out.ProbeSent += s.ProbeSent
		out.Messages += s.Messages
		out.Stored += s.Stored
		out.StoreBytes += s.StoreBytes
		out.IndexBytes += s.IndexBytes
		out.RetiredTuples += s.RetiredTuples
		out.SpilledBytes += s.SpilledBytes
		out.DemotedEpochs += s.DemotedEpochs
		out.PromotedEpochs += s.PromotedEpochs
		out.ColdProbeHits += s.ColdProbeHits
		out.ColdProbeMisses += s.ColdProbeMisses
		out.Results += s.Results
		out.ShedTuples += s.ShedTuples
	}
	return out
}

// querySet is the part of a system under test the post-stream query ops
// call. Only the traced graph runs them.
type querySet interface {
	AddQuery(q *query.Query) error
	RemoveQuery(name string) error
}

// queryOpOn runs one query add or remove.
func queryOpOn(s querySet, op queryOp) error {
	var err error
	if op.add != nil {
		err = s.AddQuery(op.add)
	} else {
		err = s.RemoveQuery(op.remove)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", op, err)
	}
	return nil
}
