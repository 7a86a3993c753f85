package main

import (
	"testing"
	"time"
)

// TestClosedWindows checks how a closed phase is cut into windows: marks
// are counted in the window they fall in, marks before the first sample
// are left out, a short last window is dropped, and each window carries
// the median gauge burst that started in it.
func TestClosedWindows(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	samples := []cpuSample{
		{at(0), 0},
		{at(500), 400 * time.Millisecond},
		{at(1000), 900 * time.Millisecond},
		{at(1100), 950 * time.Millisecond}, // tail shorter than half a window
	}
	marks := []mark{{at(600), 5}, {at(-10), 7}, {at(100), 3}, {at(1050), 1}}
	bursts := []burst{
		{at(10), 1200 * time.Microsecond},
		{at(60), 3600 * time.Microsecond},
		{at(110), 2400 * time.Microsecond},
		{at(700), 600 * time.Microsecond},
	}
	ws := closedWindows(samples, marks, bursts)
	if len(ws) != 2 {
		t.Fatalf("got %d windows, want 2 (the short tail dropped)", len(ws))
	}
	want := []struct {
		stmts int
		cpu   time.Duration
		gauge time.Duration
		speed float64
	}{
		{3, 400 * time.Millisecond, 2400 * time.Microsecond, 0.5},
		{5, 500 * time.Millisecond, 600 * time.Microsecond, 2},
	}
	for i, w := range want {
		got := ws[i]
		if got.d != 500*time.Millisecond || got.stmts != w.stmts || got.cpu != w.cpu || got.gauge != w.gauge || got.speed() != w.speed {
			t.Errorf("window %d: got d=%v stmts=%d cpu=%v gauge=%v speed=%v, want d=500ms stmts=%d cpu=%v gauge=%v speed=%v",
				i, got.d, got.stmts, got.cpu, got.gauge, got.speed(), w.stmts, w.cpu, w.gauge, w.speed)
		}
	}
	if c := gaugeCost(bursts, at(200), at(600)); c != 0 {
		t.Errorf("gaugeCost over a span without bursts = %v, want 0", c)
	}
}

// TestTailLatency checks that the p99 leaves out the worst second and
// only that one.
func TestTailLatency(t *testing.T) {
	t0 := time.Unix(1000, 0)
	var ss []stamp
	for sec := 0; sec < 4; sec++ {
		for i := 0; i < 100; i++ {
			d := time.Millisecond
			if i >= 98 {
				d = 2 * time.Millisecond // each second's two slowest requests
			}
			if sec == 2 && i >= 50 {
				d = 50 * time.Millisecond // a stall in the third second
			}
			ss = append(ss, stamp{t0.Add(time.Duration(sec)*time.Second + time.Duration(i)*10*time.Millisecond), d})
		}
	}
	if got := tailLatency(ss, t0, 4*time.Second); got != 2*time.Millisecond {
		t.Errorf("p99 without the stalled second = %v, want 2ms", got)
	}
	// The same stall in two seconds is a tail, not a stall.
	for i := 150; i < 200; i++ {
		ss[i].d = 50 * time.Millisecond
	}
	if got := tailLatency(ss, t0, 4*time.Second); got != 50*time.Millisecond {
		t.Errorf("p99 with stalls in two seconds = %v, want 50ms", got)
	}
}
