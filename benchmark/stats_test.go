package main

import (
	"math"
	"testing"
	"time"
)

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2} // unsorted on purpose
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 2.5}, {1, 4}, {0.25, 1.75}, {0.99, 3.97},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Errorf("quantile sorted its input in place: %v", xs)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one sample = %v, want 7", got)
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1
	}
	if v := tail(xs); v != 90 {
		t.Errorf("tail of 1..100 = %v, want 90", v)
	}
	if v := tail([]float64{3, 1, 2}); v != 3 {
		t.Errorf("tail of three samples = %v, want the maximum 3", v)
	}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	for _, c := range []struct{ span, children, want time.Duration }{
		{10 * ms, 4 * ms, 6 * ms},
		{10 * ms, 0, 10 * ms},
		{10 * ms, 10 * ms, 0},
		{10 * ms, 11 * ms, 0}, // clock skew never goes negative
	} {
		if got := selfTime(c.span, c.children); got != c.want {
			t.Errorf("selfTime(%v, %v) = %v, want %v", c.span, c.children, got, c.want)
		}
	}
}

func TestPairLayerArithmetic(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	lite := &pairTrace{
		start: at(0), ipEnd: at(30), traceEnd: at(100), emit: at(130),
		multilevel: true, echoSeen: true, ipProbes: 40,
		ipBusy: 10 * time.Millisecond, alBusy: 20 * time.Millisecond,
		traceSent: 90, echoSent: 10,
	}
	mda := &pairTrace{
		start: at(0), ipEnd: at(50), traceEnd: at(60), emit: at(60),
		ipBusy: 20 * time.Millisecond, traceSent: 7,
	}
	got := totals([]*pairTrace{lite, mda})
	ms := time.Millisecond
	if got.liteSelf != 20*ms || got.aliasSelf != 50*ms || got.mdaSelf != 40*ms {
		t.Errorf("self times: mdalite %v alias %v mda %v, want 20ms 50ms 40ms", got.liteSelf, got.aliasSelf, got.mdaSelf)
	}
	if got.aliasProbes != 60 || got.traceProbes != 97 || got.echoProbes != 10 {
		t.Errorf("probes: alias %d trace %d echo %d, want 60 97 10", got.aliasProbes, got.traceProbes, got.echoProbes)
	}
	if got.pairTime != 160*ms || got.reorderWait != 30*ms || got.probeBusy != 50*ms {
		t.Errorf("pair time %v reorder wait %v probe busy %v, want 160ms 30ms 50ms", got.pairTime, got.reorderWait, got.probeBusy)
	}
}
