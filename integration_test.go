package fast_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"github.com/fastrepro/fast/internal/baseline"
	"github.com/fastrepro/fast/internal/core"
	"github.com/fastrepro/fast/internal/cuckoo"
	"github.com/fastrepro/fast/internal/metrics"
	"github.com/fastrepro/fast/internal/workload"
)

// TestPipelinesAgreeOnObviousMatches drives all four pipelines over the
// same corpus and checks the cross-scheme invariants the paper's evaluation
// rests on.
func TestPipelinesAgreeOnObviousMatches(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	ds, qs := benchData(t)

	pipelines := []core.Pipeline{
		core.NewEngine(core.Config{}),
		baseline.NewSIFT(),
		baseline.NewPCASIFT(),
		baseline.NewRNPE(),
	}
	sizes := map[string]int64{}
	for _, p := range pipelines {
		if _, err := p.Build(ds.Photos); err != nil {
			t.Fatalf("%s build: %v", p.Name(), err)
		}
		sizes[p.Name()] = p.IndexBytes()
	}

	// Table IV invariant: FAST's index is the smallest; SIFT's the largest.
	if sizes["FAST"] >= sizes["SIFT"] || sizes["FAST"] >= sizes["PCA-SIFT"] || sizes["FAST"] >= sizes["RNPE"] {
		t.Errorf("FAST index not smallest: %v", sizes)
	}
	if sizes["SIFT"] <= sizes["PCA-SIFT"] {
		t.Errorf("SIFT index not larger than PCA-SIFT: %v", sizes)
	}

	// Every pipeline must achieve nonzero scene recall on near-duplicate
	// probes, and the content-based schemes must agree on the top scene.
	for _, p := range pipelines {
		var acc metrics.Accuracy
		for _, q := range qs {
			probe := core.Probe{Img: q.Probe}
			if p.Name() == "RNPE" {
				for _, ph := range ds.Photos {
					if ph.Scene == q.Scene {
						loc := ph.Loc
						probe.Loc = &loc
						break
					}
				}
			}
			res, err := p.Search(probe, len(ds.Photos))
			if err != nil {
				t.Fatalf("%s search: %v", p.Name(), err)
			}
			ids := make([]uint64, len(res))
			for i, r := range res {
				ids[i] = r.ID
			}
			acc.Add(metrics.ScoreRetrieval(ids, q.Relevant).Recall())
		}
		if acc.Mean() < 0.25 {
			t.Errorf("%s mean recall %.3f too low", p.Name(), acc.Mean())
		}
	}
}

// TestFASTFasterThanBruteForce measures real wall-clock per query: the
// headline latency claim at laptop scale.
func TestFASTFasterThanBruteForce(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	ds, qs := benchData(t)
	fast := core.NewEngine(core.Config{})
	sift := baseline.NewSIFT()
	if _, err := fast.Build(ds.Photos); err != nil {
		t.Fatal(err)
	}
	if _, err := sift.Build(ds.Photos); err != nil {
		t.Fatal(err)
	}
	timeQueries := func(p core.Pipeline) time.Duration {
		start := time.Now()
		for _, q := range qs {
			if _, err := p.Search(core.Probe{Img: q.Probe}, 20); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	tf := timeQueries(fast)
	ts := timeQueries(sift)
	if tf >= ts {
		t.Errorf("FAST (%v) not faster than SIFT (%v) at %d photos", tf, ts, len(ds.Photos))
	}
}

// TestEngineLifecycle exercises build → insert → delete → persist → restore
// → query as one flow.
func TestEngineLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	ds, qs := benchData(t)
	e := core.NewEngine(core.Config{IngestWorkers: 2})
	if _, err := e.Build(ds.Photos); err != nil {
		t.Fatal(err)
	}

	extra := ds.FreshPhoto(5_000_001, 77)
	if err := e.Insert(extra); err != nil {
		t.Fatal(err)
	}
	if err := e.Delete(ds.Photos[3].ID); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if _, err := e.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := core.ReadEngine(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Len() != e.Len() {
		t.Fatalf("restored Len %d != %d", restored.Len(), e.Len())
	}
	if restored.Contains(ds.Photos[3].ID) {
		t.Error("deleted photo resurrected by restore")
	}
	if !restored.Contains(extra.ID) {
		t.Error("inserted photo lost by restore")
	}
	for _, q := range qs[:3] {
		a, err := e.Query(q.Probe, 30)
		if err != nil {
			t.Fatal(err)
		}
		b, err := restored.Query(q.Probe, 30)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("restored query differs: %d vs %d results", len(a), len(b))
		}
	}
}

// TestEngineSurvivesUndersizedTable injects a capacity fault: a flat table
// sized below the corpus must surface ErrTableFull through Build rather
// than corrupting state.
func TestEngineSurvivesUndersizedTable(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	ds, _ := benchData(t)
	e := core.NewEngine(core.Config{TableCapacity: 16}) // 96 photos into 16 cells
	_, err := e.Build(ds.Photos)
	if err == nil {
		t.Fatal("undersized table should fail the build")
	}
	if !errors.Is(err, cuckoo.ErrTableFull) {
		t.Errorf("error does not wrap ErrTableFull: %v", err)
	}
}

// TestWorkloadDeterminismAcrossPipelines ensures the generator gives every
// pipeline exactly the same corpus (the property every comparison relies
// on).
func TestWorkloadDeterminismAcrossPipelines(t *testing.T) {
	spec := workload.Spec{Name: "det", Scenes: 3, Photos: 12, Resolution: 48, Seed: 5, SceneBase: 9500}
	a, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Photos {
		if a.Photos[i].ID != b.Photos[i].ID {
			t.Fatal("generator not deterministic")
		}
		for j := range a.Photos[i].Img.Pix {
			if a.Photos[i].Img.Pix[j] != b.Photos[i].Img.Pix[j] {
				t.Fatal("pixels differ between generations")
			}
		}
	}
}
