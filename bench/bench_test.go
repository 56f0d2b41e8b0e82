package main

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/fastrepro/fast/internal/bloom"
	"github.com/fastrepro/fast/internal/core"
)

// TestSchema holds the vocabulary in spec.go and the contract in
// BENCHMARK.json to each other, and both to the contract's limits.
func TestSchema(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default window is %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) < 2 || len(spec.Workloads) > 8 || len(spec.EndToEnd) > 16 || len(spec.PerLayer) > 128 {
		t.Errorf("counts out of range: %d workloads, %d end-to-end, %d per-layer",
			len(spec.Workloads), len(spec.EndToEnd), len(spec.PerLayer))
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q breaks the naming rule", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range spec.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].Name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be 1..200 characters, is %d", w.Name, len(w.Why))
		}
	}
	match := func(kind string, declared []specMetric, emitted []metricDecl) {
		t.Helper()
		if len(declared) != len(emitted) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program emits %d", kind, len(declared), len(emitted))
		}
		for _, m := range declared {
			unique(m.Name)
			unit, ok := unitOf(emitted, m.Name)
			if !ok {
				t.Errorf("%s metric %s is declared but never emitted", kind, m.Name)
			} else if unit != m.Unit {
				t.Errorf("%s metric %s: unit %q declared, %q emitted", kind, m.Name, m.Unit, unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s metric %s: better = %q", kind, m.Name, m.Better)
			}
		}
		for _, d := range emitted {
			found := false
			for _, m := range declared {
				found = found || m.Name == d.Name
			}
			if !found {
				t.Errorf("%s metric %s is emitted but not declared", kind, d.Name)
			}
		}
	}
	match("end-to-end", spec.EndToEnd, endToEnd)
	match("per-layer", spec.PerLayer, perLayer)
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if m, ok := spec.endToEndMetric("setup_s"); !ok || m.Unit != "s" || m.Better != "lower" {
		t.Errorf("setup_s must be declared with unit s, better lower; got %+v", m)
	}
	for _, m := range spec.PerLayer {
		if m.Bound != 0 {
			t.Errorf("per-layer metric %s carries a bound", m.Name)
		}
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 5.5}, {0.95, 9.55}, {1, 10}} {
		if got := percentile(s, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of nothing must be 0")
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	q1, q2, q3 = quartiles([]float64{1, 2, 3, 4, 5})
	if q1 != 1.5 || q2 != 3 || q3 != 4.5 {
		t.Errorf("quartiles(1..5) = %v %v %v, want 1.5 3 4.5", q1, q2, q3)
	}
}

// TestSegmentMedians: four 1 s segments; the first is warm-up and a stall in
// one later segment must not move the reported medians.
func TestSegmentMedians(t *testing.T) {
	var samples []sample
	add := func(seg int, n int, lat time.Duration, ok bool) {
		for i := 0; i < n; i++ {
			at := time.Duration(seg)*time.Second + time.Duration(i)*time.Millisecond
			samples = append(samples, sample{at: at, lat: lat, ok: ok})
		}
	}
	add(0, 500, 90*time.Millisecond, true) // warm-up: slow and busy, dropped
	add(1, 100, 2*time.Millisecond, true)
	add(2, 40, 80*time.Millisecond, true) // a host stall
	add(3, 100, 2*time.Millisecond, true)
	add(3, 1, 2*time.Millisecond, false)
	ps := summarize(samples, 4*time.Second, 4, false)
	if ps.Segments != 3 || ps.Attempted != 741 || ps.Failed != 1 {
		t.Fatalf("segments %d attempted %d failed %d", ps.Segments, ps.Attempted, ps.Failed)
	}
	if ps.P50ms != 2 || ps.P95ms != 2 || ps.PerSec != 100 {
		t.Errorf("p50 %v p95 %v rate %v, want 2 2 100 (medians over segments)", ps.P50ms, ps.P95ms, ps.PerSec)
	}
	if ps.MaxMs != 80 {
		t.Errorf("max %v, want 80 (tails see every post-warm-up sample)", ps.MaxMs)
	}
	if want := 100.0 / 101.0; math.Abs(ps.SLOOK-want) > 1e-12 {
		t.Errorf("slo ok %v, want %v: the median segment has one failure in 101", ps.SLOOK, want)
	}
	if want := (100.0 - 40.0) / 100.0; math.Abs(ps.Spread-want) > 1e-12 {
		t.Errorf("spread %v, want %v", ps.Spread, want)
	}
}

func TestCountedRates(t *testing.T) {
	var lats []time.Duration
	for i := 0; i < 10; i++ { // warm-up run: slow
		lats = append(lats, 10*time.Millisecond)
	}
	for i := 0; i < 30; i++ {
		lats = append(lats, time.Millisecond)
	}
	perSec, p50 := countedRates(lats, 4)
	if math.Abs(perSec-1000) > 1e-6 || p50 != 1 {
		t.Errorf("rate %v p50 %v, want 1000 1", perSec, p50)
	}
}

// TestOpenLoopTimesFromDue: one sender, a slow first operation. The second
// event goes out late, and its latency counts from when it was due.
func TestOpenLoopTimesFromDue(t *testing.T) {
	events := []event{{due: 0}, {due: 10 * time.Millisecond}, {due: 120 * time.Millisecond}}
	calls := 0
	samples, late := openLoop(time.Now(), 1, events, func(event) bool {
		calls++
		if calls == 1 {
			time.Sleep(60 * time.Millisecond)
		}
		return true
	})
	if samples[1].lat < 45*time.Millisecond {
		t.Errorf("second event latency %v: it waited ~50 ms behind the first and that wait must count", samples[1].lat)
	}
	if late[1] < 45*time.Millisecond {
		t.Errorf("second event lateness %v, want ~50 ms", late[1])
	}
	if late[2] > 20*time.Millisecond || samples[2].lat > 20*time.Millisecond {
		t.Errorf("third event was due after the stall: late %v lat %v", late[2], samples[2].lat)
	}
	if samples[1].at != 10*time.Millisecond {
		t.Errorf("samples are placed by due time, got %v", samples[1].at)
	}
}

func TestClosedLoopCountsEveryCall(t *testing.T) {
	samples, _ := closedLoop(2, 50*time.Millisecond, func(_, seq int) bool {
		time.Sleep(time.Millisecond)
		return seq%10 != 0
	})
	ps := summarize(samples, 50*time.Millisecond, 5, false)
	if ps.Attempted < 20 || ps.Failed == 0 || ps.Failed > ps.Attempted/5 {
		t.Errorf("attempted %d failed %d", ps.Attempted, ps.Failed)
	}
}

// smallInputs generates a tiny corpus and probe set from a seed.
func smallInputs(seed int64) (*corpus, []probe, fingerprint) {
	rng := rand.New(rand.NewSource(seed))
	c := newCorpus(4)
	c.generate(rng, corpusIDBase, 60)
	probes := loadProbes(rng, c.photos, 12)
	var fp fingerprint
	fp.photos(c.photos)
	fp.probes(probes)
	return c, probes, fp
}

// TestSeedFixesInputsAndRecall: the same seed gives the same inputs and the
// same recall_at_k; another seed gives other inputs.
func TestSeedFixesInputsAndRecall(t *testing.T) {
	recall := func(seed int64) (float64, fingerprint) {
		c, probes, fp := smallInputs(seed)
		eng := core.NewEngine(core.Config{TableCapacity: 1024, TrainingSample: 4})
		if _, err := eng.Build(c.photos); err != nil {
			t.Fatal(err)
		}
		live := newTruth()
		live.add(c.photos...)
		var sum float64
		for _, p := range probes {
			res, err := eng.Query(p.img, topK)
			if err != nil {
				t.Fatal(err)
			}
			sum += live.recall(res, p.scene)
		}
		return sum / float64(len(probes)), fp
	}
	r1, f1 := recall(7)
	r2, f2 := recall(7)
	_, _, f3 := smallInputs(8)
	if f1 != f2 || r1 != r2 {
		t.Errorf("seed 7 twice: fingerprints %s %s, recall %v %v", f1, f2, r1, r2)
	}
	if f1 == f3 {
		t.Errorf("seeds 7 and 8 gave the same inputs (%s)", f1)
	}
	if r1 <= 0 || r1 > 1 {
		t.Errorf("recall %v out of (0, 1]", r1)
	}
}

func TestRedrawSummaryKeepsShape(t *testing.T) {
	src := &bloom.Sparse{M: 8192, K: 4}
	for b := uint32(3); b < 8192; b += 97 {
		src.Bits = append(src.Bits, b)
	}
	out := redrawSummary(rand.New(rand.NewSource(1)), src, 0.15)
	if len(out.Bits) != len(src.Bits) || out.M != src.M || out.K != src.K {
		t.Fatalf("redraw changed the shape: %d bits of %d, was %d of %d", len(out.Bits), out.M, len(src.Bits), src.M)
	}
	moved := 0
	for i := range out.Bits {
		if i > 0 && out.Bits[i] <= out.Bits[i-1] {
			t.Fatalf("bits not strictly ascending at %d", i)
		}
		if !src.Contains(out.Bits[i]) {
			moved++
		}
	}
	if moved == 0 || moved > len(src.Bits)/2 {
		t.Errorf("%d of %d bits re-drawn at 15 %%", moved, len(src.Bits))
	}
}

func TestHeapBaselineSubtraction(t *testing.T) {
	if got := heapMB(30<<20, 10<<20); got != 20 {
		t.Errorf("heapMB(30 MB, 10 MB) = %v, want 20", got)
	}
	if got := heapMB(5<<20, 10<<20); got <= 0 {
		t.Errorf("heapMB below the baseline = %v, must stay positive", got)
	}
}

func TestTruthRecall(t *testing.T) {
	c, _, _ := smallInputs(5)
	live := newTruth()
	live.add(c.photos...)
	scene := c.photos[0].Scene
	var res []core.SearchResult
	for _, p := range c.photos {
		if p.Scene == scene {
			res = append(res, core.SearchResult{ID: p.ID})
		}
	}
	if got := live.recall(res, scene); got != 1 {
		t.Errorf("every relevant photo returned: recall %v", got)
	}
	live.remove(res[0].ID)
	if got := live.recall(res[1:], scene); got != 1 {
		t.Errorf("after a delete the relevant set shrinks with it: recall %v", got)
	}
	if got := live.recall(nil, scene); got != 0 {
		t.Errorf("empty answer: recall %v", got)
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	kids := []span{{Start: 10, End: 40}, {Start: 30, End: 60}, {Start: 90, End: 130}}
	// covered: [10,60) and [90,100) = 60
	if got := selfTime(parent, kids); got != 40 {
		t.Errorf("selfTime = %d, want 40", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
}

func TestVerdict(t *testing.T) {
	steadyA := side{values: []float64{100, 101, 99, 100, 100}}
	cases := []struct {
		name   string
		b      side
		better string
		want   string
	}{
		{"same", side{values: []float64{100, 100, 101, 99, 100}}, "lower", "PASS"},
		{"slower", side{values: []float64{115, 116, 114, 115, 115}}, "lower", "FAIL"},
		{"faster", side{values: []float64{80, 81, 79, 80, 80}}, "lower", "PASS"},
		{"less-throughput", side{values: []float64{85, 86, 84, 85, 85}}, "higher", "FAIL"},
		{"noisy", side{values: []float64{60, 140, 100, 90, 120}}, "lower", "UNRESOLVED"},
	}
	for _, c := range cases {
		if got, _ := verdict(steadyA, c.b, c.better, 0.10); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}
