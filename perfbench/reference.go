package main

// The reference: an indexed, windowed nested-loop join written against
// the stream alone. It shares no plan, store, or probe order with the
// engine, so a result mismatch cannot be a shared bug. Its semantics are
// those of runtime.ReferenceJoin (the repository's oracle): one result
// per combination of one tuple per query relation such that every
// predicate holds and, with m the latest-arriving member, every other
// member u arrived before m and m.TS - u.TS <= window(rel(u)).

import (
	"fmt"
	"sort"
	"time"

	"clash/internal/query"
	"clash/internal/tuple"
)

// rec is one stream element in arrival order.
type rec struct {
	rel  string
	ts   tuple.Time
	vals []tuple.Value
}

// refHit is one expected result: the arrival position of its newest
// member and the result's field hash.
type refHit struct {
	newest int
	hash   uint64
}

// expected is a query's reference outcome, ordered by newest member, so
// the expectation for any stream prefix is a prefix of hits.
type expected []refHit

// upTo returns the result count and digest expected after the first n
// stream elements.
func (e expected) upTo(n int) (int64, uint64) {
	k := sort.Search(len(e), func(i int) bool { return e[i].newest >= n })
	var d uint64
	for _, h := range e[:k] {
		d += mix(h.hash)
	}
	return int64(k), d
}

// link is an equi-join predicate seen from the relation being bound:
// attribute attr of that relation equals attribute otherAttr of the
// already-bound relation other.
type link struct {
	attr, other, otherAttr int
}

// joinStep binds one relation during enumeration.
type joinStep struct {
	rel   int
	links []link
}

// referenceJoin enumerates the query's results over the stream, calling
// visit with the newest member's position and every member's position
// (indexed like q.Relations). The stream must be in non-decreasing
// event-time order.
func referenceJoin(q *query.Query, cat *query.Catalog, defWindow time.Duration, stream []rec, visit func(newest int, members []int)) error {
	n := len(q.Relations)
	relIdx := map[string]int{}
	attrPos := make([]map[string]int, n)
	windows := make([]tuple.Time, n)
	for i, name := range q.Relations {
		if _, dup := relIdx[name]; dup {
			return fmt.Errorf("reference: query %s repeats relation %s", q.Name, name)
		}
		r := cat.Relation(name)
		if r == nil {
			return fmt.Errorf("reference: relation %s not in catalog", name)
		}
		relIdx[name] = i
		attrPos[i] = map[string]int{}
		for j, a := range r.Attrs {
			attrPos[i][a] = j
		}
		windows[i] = tuple.Time(cat.Window(name, defWindow))
	}
	resolve := func(a query.Attr) (side, error) {
		ri, ok := relIdx[a.Rel]
		if !ok {
			return side{}, fmt.Errorf("reference: query %s predicate names relation %s", q.Name, a.Rel)
		}
		ai, ok := attrPos[ri][a.Name]
		if !ok {
			return side{}, fmt.Errorf("reference: relation %s has no attribute %s", a.Rel, a.Name)
		}
		return side{ri, ai}, nil
	}
	preds := make([]pred, 0, len(q.Preds))
	for _, p := range q.Preds {
		l, err := resolve(p.Left)
		if err != nil {
			return err
		}
		r, err := resolve(p.Right)
		if err != nil {
			return err
		}
		preds = append(preds, pred{l, r})
	}

	// Per start relation, a breadth-first binding order in which every
	// later relation is linked to an earlier one by some predicate.
	orders := make([][]joinStep, n)
	for s := 0; s < n; s++ {
		bound := make([]bool, n)
		bound[s] = true
		order := []joinStep{{rel: s}}
		for len(order) < n {
			progressed := false
			for j := 0; j < n; j++ {
				if bound[j] {
					continue
				}
				var links []link
				for _, p := range preds {
					switch {
					case p.l.rel == j && p.r.rel != j && bound[p.r.rel]:
						links = append(links, link{p.l.attr, p.r.rel, p.r.attr})
					case p.r.rel == j && p.l.rel != j && bound[p.l.rel]:
						links = append(links, link{p.r.attr, p.l.rel, p.l.attr})
					}
				}
				if len(links) == 0 {
					continue
				}
				bound[j] = true
				order = append(order, joinStep{rel: j, links: links})
				progressed = true
			}
			if !progressed {
				return fmt.Errorf("reference: query %s is not connected", q.Name)
			}
		}
		orders[s] = order
	}

	// Posting lists: per relation and attribute, the arrival positions of
	// each value (ascending, hence ascending event time).
	index := make([]map[int]map[tuple.Value][]int, n)
	for i := range index {
		index[i] = map[int]map[tuple.Value][]int{}
	}
	for _, p := range preds {
		for _, sd := range []side{p.l, p.r} {
			if index[sd.rel][sd.attr] == nil {
				index[sd.rel][sd.attr] = map[tuple.Value][]int{}
			}
		}
	}

	members := make([]int, n)
	var lastTS tuple.Time
	for pos, in := range stream {
		if in.ts < lastTS {
			return fmt.Errorf("reference: stream not in event-time order at %d", pos)
		}
		lastTS = in.ts
		s, ok := relIdx[in.rel]
		if !ok {
			continue
		}
		order := orders[s]
		members[s] = pos
		var bind func(k int)
		bind = func(k int) {
			if k == len(order) {
				visit(pos, members)
				return
			}
			st := order[k]
			if k == 0 {
				bind(1)
				return
			}
			// Look up through the link with the fewest in-window
			// candidates; check the rest per candidate.
			var cands []int
			looked := false
			for _, l := range st.links {
				v := stream[members[l.other]].vals[l.otherAttr]
				list := inWindow(stream, index[st.rel][l.attr][v], in.ts, windows[st.rel])
				if !looked || len(list) < len(cands) {
					cands, looked = list, true
				}
			}
			for _, c := range cands {
				members[st.rel] = c
				if holds(stream, members, st) {
					bind(k + 1)
				}
			}
		}
		bind(0)
		for attr, byVal := range index[s] {
			v := in.vals[attr]
			byVal[v] = append(byVal[v], pos)
		}
	}
	return nil
}

// side is one attribute of a query relation, by position.
type side struct{ rel, attr int }

// pred is a resolved equi-join predicate.
type pred struct{ l, r side }

// holds checks every link of a bound step.
func holds(stream []rec, members []int, st joinStep) bool {
	vals := stream[members[st.rel]].vals
	for _, l := range st.links {
		if vals[l.attr] != stream[members[l.other]].vals[l.otherAttr] {
			return false
		}
	}
	return true
}

// inWindow trims a posting list to the positions whose event time lies
// within w of now (w = 0: unbounded).
func inWindow(stream []rec, list []int, now, w tuple.Time) []int {
	if w <= 0 {
		return list
	}
	lo := sort.Search(len(list), func(i int) bool { return now-stream[list[i]].ts <= w })
	return list[lo:]
}

// buildExpected runs the reference for each query and hashes every
// result the way the engine-side hasher hashes result tuples.
func buildExpected(qs []*query.Query, cat *query.Catalog, defWindow time.Duration, stream []rec) (map[string]expected, error) {
	memberHash := streamHashes(cat, stream)
	out := map[string]expected{}
	for _, q := range qs {
		var hits expected
		err := referenceJoin(q, cat, defWindow, stream, func(newest int, members []int) {
			var h uint64
			for _, m := range members {
				h += memberHash[m]
			}
			hits = append(hits, refHit{newest: newest, hash: h})
		})
		if err != nil {
			return nil, err
		}
		out[q.Name] = hits
	}
	return out, nil
}
