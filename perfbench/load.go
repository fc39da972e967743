package main

// Load generation. The load goroutine is the only caller of the system
// under test; on the synchronous substrate it also runs the engine, so
// every pass is the single-threaded baseline.
//
//   - A closed-loop pass sends the next tuple as soon as Ingest returns;
//     its stream wall time gives the throughput.
//   - An open-loop pass sends tuple i at base + i/rate, whether or not
//     the engine kept up, and times each result from the scheduled send
//     of its newest input (a joined tuple carries the largest member
//     timestamp, which maps back to that input's send time).

import (
	"fmt"
	"os"
	goruntime "runtime"
	"time"

	"clash/internal/runtime"
	"clash/internal/tuple"
)

type passKind int

const (
	closedLoop passKind = iota
	openLoop
)

func (k passKind) String() string {
	if k == openLoop {
		return "open"
	}
	return "closed"
}

// passResult is what one pass over the stream measured.
type passResult struct {
	kind      passKind
	n         int           // stream elements ingested
	setup     time.Duration // clash.Start / clash.NewCluster
	wall      time.Duration // stream and final Drain
	latUS     []float64     // open loop: result latency
	lagUS     []float64     // open loop: send lateness
	stateMiB  float64
	heapMiB   float64
	snap      runtime.Snapshot // at the end of the stream
	postSnap  runtime.Snapshot // after the post-stream ops
	attempted int64
	failed    int64
	tallies   map[string]*tally
	mismatch  []string
}

// starter builds a fresh system under test with its files in dir.
type starter func(sp *spec, dir string) (sut, error)

// streamHooks run right before the first tuple and right after the
// final Drain of a pass (the traced run brackets its ledger with them).
type streamHooks struct {
	begin, end func()
}

// runPass starts a fresh system, drives the first n stream elements
// through it, measures it, runs postCycles cycles of the post-stream
// query ops, checks its results, and closes it.
func runPass(sp *spec, exp map[string]expected, start starter, dir string, kind passKind, n int, postCycles int, hooks *streamHooks) (*passResult, error) {
	defer os.RemoveAll(dir)
	res := &passResult{kind: kind, n: n, tallies: map[string]*tally{}}
	if kind == openLoop {
		// Sized up front so the samples do not count as engine heap.
		var want int
		for _, name := range sp.checked {
			c, _ := exp[name].upTo(n)
			want += int(c)
		}
		res.latUS = make([]float64, 0, 2*want+1024)
		res.lagUS = make([]float64, 0, n)
	}
	heapBase := liveHeap()
	t0 := time.Now()
	s, err := start(sp, dir)
	if err != nil {
		return nil, fmt.Errorf("start: %w", err)
	}
	res.setup = time.Since(t0)
	closed := false
	defer func() {
		if !closed {
			s.Close()
		}
	}()

	base := time.Now()
	var sent sendLog
	h := newResultHasher()
	for _, q := range append(sp.queries[:len(sp.queries):len(sp.queries)], sp.extra...) {
		t := &tally{}
		res.tallies[q.Name] = t
		hashed := contains(sp.checked, q.Name)
		s.OnResult(q.Name, func(r *tuple.Tuple) {
			t.count++
			if hashed {
				t.digest += mix(h.hash(r))
			}
			if kind == openLoop {
				if due, ok := sent.due(r.TS); ok {
					res.latUS = append(res.latUS, float64(int64(time.Since(base))-due)/1e3)
				}
			}
		})
	}

	interval := float64(time.Second) / sp.rate
	if hooks != nil {
		hooks.begin()
	}
	streamStart := time.Now()
	for i := 0; i < n; i++ {
		r := sp.stream[i]
		if kind == openLoop {
			due := int64(float64(i) * interval)
			res.lagUS = append(res.lagUS, float64(waitUntil(base, due)-due)/1e3)
			sent.add(r.ts, due)
		}
		res.attempted++
		if err := s.Ingest(r.rel, r.ts, r.vals...); err != nil {
			return nil, fmt.Errorf("ingest %d (%s): %w", i, r.rel, err)
		}
		if i == n-1 {
			s.Drain()
		}
	}
	res.wall = time.Since(streamStart)
	if hooks != nil {
		hooks.end()
	}

	res.snap = s.Snapshot()
	res.stateMiB = float64(res.snap.StoreBytes) / (1 << 20)
	res.heapMiB = float64(liveHeap()-heapBase) / (1 << 20)
	for c := 0; c < postCycles; c++ {
		for _, op := range sp.postOps {
			res.attempted++
			if err := queryOpOn(s.(querySet), op); err != nil {
				res.failed++
				fmt.Fprintln(os.Stderr, "perfbench:", err)
			}
		}
	}
	res.postSnap = s.Snapshot()
	res.failed += s.Dropped()
	res.mismatch = checkTallies(sp, exp, res.tallies, n)
	closed = true
	if err := s.Close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	return res, nil
}

// sendLog remembers the scheduled send times of the most recent inputs.
// On the synchronous substrate a result is delivered while its newest
// input is being ingested, so only the last few entries are ever asked
// for; a fixed ring keeps the log out of the measured heap.
type sendLog struct {
	ts   [256]tuple.Time
	at   [256]int64
	next int
}

func (l *sendLog) add(ts tuple.Time, due int64) {
	l.ts[l.next%len(l.ts)], l.at[l.next%len(l.at)] = ts, due
	l.next++
}

// due returns the send time of the latest input with event time ts.
func (l *sendLog) due(ts tuple.Time) (int64, bool) {
	for i := l.next - 1; i >= 0 && i >= l.next-len(l.ts); i-- {
		if l.ts[i%len(l.ts)] == ts {
			return l.at[i%len(l.at)], true
		}
	}
	return 0, false
}

// checkTallies compares the checked queries' observed results with the
// reference over the first n stream elements.
func checkTallies(sp *spec, exp map[string]expected, got map[string]*tally, n int) []string {
	var bad []string
	for _, name := range sp.checked {
		count, digest := exp[name].upTo(n)
		if t := got[name]; t.count != count || t.digest != digest {
			bad = append(bad, fmt.Sprintf("%s: %d results (digest %016x), reference %d (digest %016x)",
				name, t.count, t.digest, count, digest))
		}
	}
	return bad
}

// waitUntil returns once due nanoseconds have passed since base: it
// sleeps while far from the deadline and spins for the last stretch, so
// sends are not late by a timer's granularity. It returns the time it
// actually returned at.
func waitUntil(base time.Time, due int64) int64 {
	for {
		now := int64(time.Since(base))
		left := due - now
		if left <= 0 {
			return now
		}
		if left > 400_000 {
			time.Sleep(time.Duration(left - 250_000))
		}
	}
}

// liveHeap returns the bytes of live heap after a forced collection.
func liveHeap() uint64 {
	goruntime.GC()
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
