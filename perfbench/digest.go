package main

// Order-independent result digests. A result's hash is the wrapping sum
// of one hash per (qualified attribute, value) field, so it does not
// depend on the order in which a plan concatenated the members; a
// query's digest is the wrapping sum of mixed result hashes, so it does
// not depend on emission order either.

import (
	"clash/internal/query"
	"clash/internal/tuple"
)

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// nameHash is FNV-1a over a qualified attribute name.
func nameHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func fieldHash(name uint64, v tuple.Value) uint64 { return mix(name ^ mix(v.Hash())) }

// streamHashes precomputes each stream element's contribution to the
// hash of any result it is a member of: its attributes under their
// qualified names plus the τ pseudo-attribute carrying its event time,
// exactly the fields the engine's ingest schema gives it.
func streamHashes(cat *query.Catalog, stream []rec) []uint64 {
	names := map[string][]uint64{}
	for _, rel := range cat.Names() {
		r := cat.Relation(rel)
		hs := make([]uint64, 0, len(r.Attrs)+1)
		for _, a := range r.Attrs {
			hs = append(hs, nameHash(rel+"."+a))
		}
		names[rel] = append(hs, nameHash(rel+".τ"))
	}
	out := make([]uint64, len(stream))
	for i, in := range stream {
		hs := names[in.rel]
		var h uint64
		for j, v := range in.vals {
			h += fieldHash(hs[j], v)
		}
		out[i] = h + fieldHash(hs[len(in.vals)], tuple.IntValue(int64(in.ts)))
	}
	return out
}

// resultHasher hashes engine result tuples, caching name hashes per
// result schema. Not safe for concurrent use.
type resultHasher struct {
	names map[*tuple.Schema][]uint64
}

func newResultHasher() *resultHasher {
	return &resultHasher{names: map[*tuple.Schema][]uint64{}}
}

func (h *resultHasher) hash(t *tuple.Tuple) uint64 {
	hs, ok := h.names[t.Schema]
	if !ok {
		for _, n := range t.Schema.Names() {
			hs = append(hs, nameHash(n))
		}
		h.names[t.Schema] = hs
	}
	var sum uint64
	for i, v := range t.Values {
		sum += fieldHash(hs[i], v)
	}
	return sum
}

// tally accumulates one query's observed results.
type tally struct {
	count  int64
	digest uint64
}
