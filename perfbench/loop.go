package main

import (
	"math"
	"sort"

	"splitfs/internal/sim"
)

// traceBlock is how many consecutive ops share one traced-or-untraced
// draw in a traced run. The draw is random so that periodic work (a
// memtable flush every few hundred puts) cannot alias with the blocks.
const traceBlock = 64

// loop drives one closed-loop client's measured phase: it decides when
// the phase ends, times each op, and in a traced run switches tracing on
// for randomly chosen blocks of ops, so traced and untraced throughput
// are measured over the same stretch of the run.
type loop struct {
	tr       *tracer
	sid      int
	budget   int64 // ops; when 0 the phase ends at deadline
	deadline int64 // tracer ns
	last     int64 // tracer ns at the end of the latest op
	traced   bool
	rng      *sim.RNG

	on          bool // the current block is traced
	ops, failed int64
	lat         []int64    // ns per op, in op order
	byMode      [2]opTally // untraced, traced
}

// opTally sums the ops of one tracing mode and their latency.
type opTally struct{ ops, ns int64 }

func newLoop(tr *tracer, sid int, b budget, traced bool, seed uint64) *loop {
	now := tr.now()
	return &loop{tr: tr, sid: sid, budget: b.ops, deadline: now + b.ns, last: now,
		traced: traced, rng: sim.NewRNG(seed ^ 0x7ace)}
}

// budget bounds a measured phase by op count (tests) or by wall time.
type budget struct{ ops, ns int64 }

// more reports whether the client may start another op.
func (l *loop) more() bool {
	if l.budget > 0 {
		return l.ops < l.budget
	}
	return l.last < l.deadline
}

// begin starts op number l.ops and returns its start time.
func (l *loop) begin() int64 {
	s := l.tr.sess[l.sid]
	if l.traced && l.ops%traceBlock == 0 {
		l.on = l.rng.Intn(2) == 1
		s.on.Store(l.on)
	}
	s.seq.Store(l.ops)
	return l.tr.now()
}

// end finishes the op begun at start; ok is false when the op failed or
// returned a wrong result.
func (l *loop) end(start int64, ok bool) {
	if l.on {
		l.tr.end(l.sid, layerOp, 0, start)
	}
	l.last = l.tr.now()
	d := l.last - start
	l.lat = append(l.lat, d)
	m := &l.byMode[boolIdx(l.on)]
	m.ops++
	m.ns += d
	l.ops++
	if !ok {
		l.failed++
	}
}

// finish switches tracing off, so calls made while tearing down are not
// recorded.
func (l *loop) finish() { l.tr.sess[l.sid].on.Store(false) }

func boolIdx(b bool) int {
	if b {
		return 1
	}
	return 0
}

// percentile returns the nearest-rank p-quantile of sorted, in µs.
func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i]) / 1e3
}

func sortedCopy(xs []int64) []int64 {
	out := append([]int64(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
