package main

import (
	"math"
	"sync/atomic"
	"time"
)

// Samples are kept in a log-linear histogram: buckets 1 % wide from 1 to
// about 10^12 (nanoseconds, bytes). Its memory is fixed, so recording a
// million samples neither grows the heap nor shifts the Go GC's pacing
// halfway through a run, and a quantile is still read to within 1 %.
const (
	histBuckets = 2800
	histGrowth  = 1.01
)

var logGrowth = math.Log(histGrowth)

// bucketOf returns the bucket of v: 0 holds v < 1, bucket i ≥ 1 holds
// [growth^(i-1), growth^i).
func bucketOf(v float64) int {
	if v < 1 {
		return 0
	}
	return min(int(math.Log(v)/logGrowth)+1, histBuckets-1)
}

func bucketBounds(i int) (lo, hi float64) {
	if i == 0 {
		return 0, 1
	}
	return math.Exp(float64(i-1) * logGrowth), math.Exp(float64(i) * logGrowth)
}

// recorder is a concurrent histogram of one span kind.
type recorder struct {
	counts [histBuckets]atomic.Uint64
}

func (r *recorder) add(v float64) { r.counts[bucketOf(v)].Add(1) }

func (r *recorder) since(t0 time.Time) { r.add(float64(time.Since(t0))) }

func (r *recorder) reset() {
	for i := range r.counts {
		r.counts[i].Store(0)
	}
}

func (r *recorder) snapshot() *hist {
	h := new(hist)
	for i := range r.counts {
		h[i] = r.counts[i].Load()
	}
	return h
}

func (r *recorder) len() uint64 { return r.snapshot().total() }

// hist is a snapshot of a recorder.
type hist [histBuckets]uint64

func (h *hist) total() uint64 {
	var n uint64
	for _, c := range h {
		n += c
	}
	return n
}

// minus returns the samples recorded between snapshot o and h.
func (h *hist) minus(o *hist) *hist {
	d := new(hist)
	for i := range h {
		d[i] = h[i] - o[i]
	}
	return d
}

// add adds o's samples to h.
func (h *hist) add(o *hist) {
	for i := range h {
		h[i] += o[i]
	}
}

// quantile returns the nearest-rank q-quantile, interpolated by rank
// inside its bucket, or 0 for no samples.
func (h *hist) quantile(q float64) float64 {
	n := h.total()
	if n == 0 {
		return 0
	}
	rank := max(uint64(math.Ceil(q*float64(n))), 1)
	var seen uint64
	for i, c := range h {
		if seen+c >= rank {
			lo, hi := bucketBounds(i)
			return lo + (hi-lo)*(float64(rank-seen)-0.5)/float64(c)
		}
		seen += c
	}
	return 0
}
