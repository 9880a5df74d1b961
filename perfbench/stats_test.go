package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	// Reference values from Python's statistics.quantiles(method="inclusive").
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {25, 1.75}, {50, 2.5}, {75, 3.25}, {100, 4},
	} {
		if got := percentile(append([]float64(nil), xs...), c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("single sample p99 = %v", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("empty input should give NaN")
	}
	ds := []time.Duration{3 * time.Microsecond, time.Microsecond, 2 * time.Microsecond}
	if got := durPercentile(ds, 50, time.Microsecond); got != 2 {
		t.Errorf("duration median = %v us", got)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 99.9, true}, {9999, 99, true}, {1000, 99, true}, {999, 90, true}, {100, 90, true}, {99, 0, false},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

// TestSustainedRate checks that over closes a rate window once one has
// passed and that sustained is the 10th percentile of the window rates,
// or the whole-phase rate before any window closed.
func TestSustainedRate(t *testing.T) {
	p := &phase{start: time.Now().Add(-2 * rateWindow), ops: 1000}
	if p.over(time.Hour) {
		t.Fatal("phase over before its duration")
	}
	if len(p.rates) != 1 || p.winOps != 1000 {
		t.Fatalf("rates %v, window ops %d; want one window of 1000 ops", p.rates, p.winOps)
	}
	if r := p.rates[0]; r <= 0 || r > 1000/(2*rateWindow).Seconds() {
		t.Errorf("window rate %v", r)
	}
	p.over(time.Hour)
	if len(p.rates) != 1 {
		t.Errorf("a second window closed at once: %v", p.rates)
	}

	p.rates = []float64{100, 10, 90, 20, 80, 30, 70, 40, 60, 50, 0}
	if got := p.sustained(); math.Abs(got-10) > 1e-12 {
		t.Errorf("sustained = %v, want 10", got)
	}
	if p.rates[0] != 100 {
		t.Error("sustained reordered the phase's rates")
	}
	q := &phase{ops: 50, wall: 2 * time.Second}
	if got := q.sustained(); got != 25 {
		t.Errorf("sustained with no window = %v, want 25", got)
	}
}

func TestOverhead(t *testing.T) {
	if got := overhead(10, 11); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("overhead(10, 11) = %v", got)
	}
	if got := overhead(10, 9); math.Abs(got+0.1) > 1e-12 {
		t.Errorf("overhead(10, 9) = %v", got)
	}
	if !math.IsNaN(overhead(0, 5)) {
		t.Error("zero base should give NaN")
	}
}

func TestSelfTimes(t *testing.T) {
	sp := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "a.child", Start: 15, End: 25, Parent: 1},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a by 10
		{Name: "c", Start: 90, End: 120, Parent: 0}, // runs past the root
	}
	got := selfTimes(sp, nil)
	// root: 100 - union{[10,40],[30,60],[90,100]} = 100 - 60
	want := []int64{40, 20, 10, 30, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self[%s] = %d, want %d", sp[i].Name, got[i], want[i])
		}
	}
}

func TestTracerHooks(t *testing.T) {
	tr := newTracer()
	op := tr.begin(spWrite)
	// Packet 1 raises a PacketIn; packet 2 raises none, so its spans stay
	// open until the op ends.
	tr.agentOut(nil)
	tr.pipeOut(nil)
	tr.pipeIn(nil)
	tr.agentIn(nil)
	tr.agentOut(nil)
	tr.pipeOut(nil)
	tr.end(op)
	if len(tr.stack) != 0 || len(tr.spans) != 0 {
		t.Fatalf("op not flushed: stack %v, %d spans", tr.stack, len(tr.spans))
	}
	for name, n := range map[string]int64{spWrite: 1, spAgent: 2, spPipeline: 2} {
		if a := tr.aggs[name]; a == nil || a.count != n {
			t.Errorf("%s: got %+v, want %d spans", name, a, n)
		}
	}
	for _, s := range tr.kept {
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
		if s.Name != spWrite && s.Parent < 0 {
			t.Errorf("span %s has no parent", s.Name)
		}
	}
	// Self times of one op add up to the root's duration.
	var self, root int64
	for _, a := range tr.aggs {
		self += a.self
	}
	root = tr.rootTotal
	if self != root {
		t.Errorf("self times sum to %d, root spans last %d", self, root)
	}
	if share := tr.layerShare("pisa"); share < 0 || share > 1 {
		t.Errorf("pisa share %v", share)
	}
}

// TestBenchmarkJSONNames keeps the metric lists of the result line in step
// with the repository's BENCHMARK.json.
func TestBenchmarkJSONNames(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	for _, c := range []struct {
		what       string
		json, code []string
	}{
		{"workloads", names(b.Workloads), benchWorkloads()},
		{"end_to_end", names(b.EndToEnd), endToEnd},
		{"per_layer", names(b.PerLayer), perLayer},
	} {
		if !slices.Equal(c.json, c.code) {
			t.Errorf("%s: BENCHMARK.json lists %v, the benchmark prints %v", c.what, c.json, c.code)
		}
	}
}
