package main

import (
	"sort"
	"strings"
	"testing"
	"time"

	"clash/internal/core"
	"clash/internal/ilp"
	"clash/internal/query"
	"clash/internal/rng"
	"clash/internal/runtime"
	"clash/internal/tpch"
	"clash/internal/tuple"
)

// canonical renders a reference result the way runtime.CanonicalResult
// renders an engine result.
func canonical(cat *query.Catalog, stream []rec, members []int) string {
	var parts []string
	for _, m := range members {
		in := stream[m]
		for j, a := range cat.Relation(in.rel).Attrs {
			parts = append(parts, in.rel+"."+a+"="+in.vals[j].String())
		}
		parts = append(parts, in.rel+".τ="+tuple.IntValue(int64(in.ts)).String())
	}
	sort.Strings(parts)
	return strings.Join(parts, "|")
}

// TestReferenceMatchesOracle checks the indexed reference against the
// repository's nested-loop oracle on small random streams: a join, a
// chain and a cycle, under bounded and unbounded windows.
func TestReferenceMatchesOracle(t *testing.T) {
	cat := query.MustCatalog(
		&query.Relation{Name: "R", Attrs: []string{"a", "c"}},
		&query.Relation{Name: "S", Attrs: []string{"a", "b"}, Window: 7},
		&query.Relation{Name: "T", Attrs: []string{"b", "c"}},
	)
	attr := func(rel, name string) query.Attr { return query.Attr{Rel: rel, Name: name} }
	eq := func(l, r query.Attr) query.Predicate { return query.Predicate{Left: l, Right: r}.Normalize() }
	mk := func(name string, rels []string, preds ...query.Predicate) *query.Query {
		q, err := query.NewQuery(name, rels, preds)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	qs := []*query.Query{
		mk("rs", []string{"R", "S"}, eq(attr("R", "a"), attr("S", "a"))),
		mk("rst", []string{"R", "S", "T"}, eq(attr("R", "a"), attr("S", "a")), eq(attr("S", "b"), attr("T", "b"))),
		mk("cycle", []string{"R", "S", "T"}, eq(attr("R", "a"), attr("S", "a")), eq(attr("S", "b"), attr("T", "b")), eq(attr("T", "c"), attr("R", "c"))),
	}
	for seed := uint64(1); seed <= 20; seed++ {
		r := rng.New(seed)
		var stream []rec
		var inputs []runtime.Ingestion
		ts := tuple.Time(0)
		for i := 0; i < 120; i++ {
			ts += tuple.Time(r.Intn(3)) // ties included
			rel := []string{"R", "S", "T"}[r.Intn(3)]
			vals := []tuple.Value{tuple.IntValue(r.Int64n(4)), tuple.IntValue(r.Int64n(4))}
			stream = append(stream, rec{rel: rel, ts: ts, vals: vals})
			inputs = append(inputs, runtime.Ingestion{Rel: rel, TS: ts, Vals: vals})
		}
		for _, window := range []time.Duration{0, 10} {
			for _, q := range qs {
				want := runtime.ReferenceJoin(q, cat, tuple.Duration(window), inputs)
				got := map[string]int{}
				err := referenceJoin(q, cat, window, stream, func(_ int, members []int) {
					got[canonical(cat, stream, members)]++
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("seed %d window %d %s: %d distinct results, oracle %d", seed, window, q.Name, len(got), len(want))
				}
				for k, n := range want {
					if got[k] != n {
						t.Fatalf("seed %d window %d %s: result %s seen %d times, oracle %d", seed, window, q.Name, k, got[k], n)
					}
				}
			}
		}
	}
}

// TestDigestMatchesEngine runs a small TPC-H stream through an engine
// and checks that the engine-side result hashes add up to the
// reference's digest, query by query.
func TestDigestMatchesEngine(t *testing.T) {
	stream, err := tpchStream(3, 0.001, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cat := tpch.Catalog()
	qs := tpch.Fig7TenQueries()
	const window = 200 * time.Millisecond
	exp, err := buildExpected(qs, cat, window, stream)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.NewOptimizer(core.Options{Solver: ilp.Options{MaxNodes: 2_000}, DeterministicWarmStart: true}).Optimize(qs, estimatesFor(cat, qs, stream, time.Second))
	if err != nil {
		t.Fatal(err)
	}
	topo, err := core.Compile([]*core.Plan{plan}, core.CompileOptions{Shared: true})
	if err != nil {
		t.Fatal(err)
	}
	eng := runtime.New(runtime.Config{Catalog: cat, DefaultWindow: window, Substrate: runtime.SubstrateSynchronous})
	defer eng.Stop()
	if err := eng.Install(topo, 0); err != nil {
		t.Fatal(err)
	}
	h := newResultHasher()
	got := map[string]*tally{}
	for _, q := range qs {
		tl := &tally{}
		got[q.Name] = tl
		eng.OnResult(q.Name, func(r *tuple.Tuple) {
			tl.count++
			tl.digest += mix(h.hash(r))
		})
	}
	for _, in := range stream {
		if err := eng.Ingest(in.rel, in.ts, in.vals...); err != nil {
			t.Fatal(err)
		}
	}
	eng.Drain()
	var total int64
	for _, q := range qs {
		count, digest := exp[q.Name].upTo(len(stream))
		total += count
		if got[q.Name].count != count || got[q.Name].digest != digest {
			t.Errorf("%s: engine %d results (digest %016x), reference %d (%016x)",
				q.Name, got[q.Name].count, got[q.Name].digest, count, digest)
		}
	}
	if total == 0 {
		t.Fatal("no results: the check is vacuous")
	}
}
