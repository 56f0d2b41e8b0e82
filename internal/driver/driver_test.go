package driver

import (
	"errors"
	"sync/atomic"
	"testing"

	"github.com/fastrepro/fast/internal/core"
	"github.com/fastrepro/fast/internal/simimg"
	"github.com/fastrepro/fast/internal/workload"
)

// smallSpec mirrors the workload package's test corpus.
func smallSpec() workload.Spec {
	return workload.Spec{
		Name:        "driver-test",
		Scenes:      4,
		Photos:      40,
		Subjects:    3,
		SubjectRate: 0.5,
		Resolution:  48,
		Seed:        7,
		SceneBase:   9100,
	}
}

// stubPipeline lets driver tests run without a real engine.
type stubPipeline struct {
	calls  atomic.Int64
	fail   bool
	result []core.SearchResult
}

func (s *stubPipeline) Name() string { return "stub" }
func (s *stubPipeline) Build([]*simimg.Photo) (core.BuildStats, error) {
	return core.BuildStats{}, nil
}
func (s *stubPipeline) Insert(*simimg.Photo) error { return nil }
func (s *stubPipeline) Search(core.Probe, int) ([]core.SearchResult, error) {
	s.calls.Add(1)
	if s.fail {
		return nil, errors.New("stub failure")
	}
	return s.result, nil
}
func (s *stubPipeline) IndexBytes() int64     { return 0 }
func (s *stubPipeline) SimCost() core.SimCost { return core.SimCost{} }

var _ core.Pipeline = (*stubPipeline)(nil)

func TestDriverValidation(t *testing.T) {
	d := Driver{}
	if _, err := d.Run(nil, nil, nil); err == nil {
		t.Error("nil pipeline should fail")
	}
	ds, _ := workload.Generate(smallSpec())
	if _, err := d.Run(&stubPipeline{}, ds, nil); err == nil {
		t.Error("empty query set should fail")
	}
}

func TestDriverRunsEveryQuery(t *testing.T) {
	ds, err := workload.Generate(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	qs, err := ds.Queries(20, 3)
	if err != nil {
		t.Fatal(err)
	}
	stub := &stubPipeline{result: []core.SearchResult{{ID: ds.Photos[0].ID, Score: 1}}}
	res, err := Driver{Clients: 4}.Run(stub, ds, qs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := stub.calls.Load(); got != 20 {
		t.Errorf("pipeline saw %d queries, want 20", got)
	}
	if res.Queries != 20 || res.Failures != 0 {
		t.Errorf("result = %+v", res)
	}
	if res.Latency.Count != 20 {
		t.Errorf("latency samples = %d", res.Latency.Count)
	}
	if res.Recall < 0 || res.Recall > 1 {
		t.Errorf("recall = %v", res.Recall)
	}
	if res.Elapsed <= 0 {
		t.Error("elapsed not positive")
	}
}

func TestDriverCountsFailures(t *testing.T) {
	ds, err := workload.Generate(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	qs, _ := ds.Queries(10, 4)
	stub := &stubPipeline{fail: true}
	res, err := Driver{Clients: 2}.Run(stub, ds, qs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Failures != 10 {
		t.Errorf("Failures = %d, want 10", res.Failures)
	}
	if res.Latency.Count != 0 {
		t.Errorf("failed queries recorded latency: %d", res.Latency.Count)
	}
}

func TestDriverClampsClients(t *testing.T) {
	ds, err := workload.Generate(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	qs, _ := ds.Queries(3, 5)
	stub := &stubPipeline{}
	// More clients than queries must not deadlock or drop work.
	res, err := Driver{Clients: 100}.Run(stub, ds, qs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries != 3 {
		t.Errorf("Queries = %d", res.Queries)
	}
}

func TestDriverEndToEndWithEngine(t *testing.T) {
	ds, err := workload.Generate(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(core.Config{})
	if _, err := eng.Build(ds.Photos); err != nil {
		t.Fatal(err)
	}
	qs, _ := ds.Queries(6, 6)
	res, err := Driver{Clients: 3, TopK: 20}.Run(eng, ds, qs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Failures != 0 {
		t.Errorf("engine failures: %d", res.Failures)
	}
	if res.Latency.Mean <= 0 {
		t.Error("no latency recorded")
	}
	if res.Throughput <= 0 {
		t.Error("no throughput computed")
	}
}
