package baseline

import (
	"testing"

	"github.com/fastrepro/fast/internal/core"
	"github.com/fastrepro/fast/internal/metrics"
	"github.com/fastrepro/fast/internal/simimg"
	"github.com/fastrepro/fast/internal/workload"
)

var testDS *workload.Dataset

func dataset(t *testing.T) *workload.Dataset {
	t.Helper()
	if testDS != nil {
		return testDS
	}
	ds, err := workload.Generate(workload.Spec{
		Name:        "baseline-test",
		Scenes:      5,
		Photos:      80,
		Subjects:    3,
		SubjectRate: 0.25,
		Resolution:  64,
		Seed:        31,
		SceneBase:   900,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	testDS = ds
	return ds
}

func sceneLoc(ds *workload.Dataset, scene simimg.SceneID) simimg.GeoPoint {
	for _, p := range ds.Photos {
		if p.Scene == scene {
			return p.Loc
		}
	}
	return simimg.GeoPoint{}
}

func TestSIFTBuildAndSearch(t *testing.T) {
	ds := dataset(t)
	s := NewSIFT()
	st, err := s.Build(ds.Photos)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if st.Photos != len(ds.Photos) || len(s.records) != len(ds.Photos) {
		t.Fatalf("built %d/%d photos", st.Photos, len(s.records))
	}
	if st.Descriptors == 0 || st.FeatureTime <= 0 {
		t.Errorf("stats missing: %+v", st)
	}
	if s.IndexBytes() <= 0 {
		t.Error("IndexBytes not positive")
	}
	if s.SimCost().StorageTime <= 0 {
		t.Error("no storage cost charged for SQL puts")
	}

	qs, err := ds.Queries(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	var acc metrics.Accuracy
	for _, q := range qs {
		res, err := s.Search(core.Probe{Img: q.Probe}, 100)
		if err != nil {
			t.Fatalf("Search: %v", err)
		}
		ids := make([]uint64, len(res))
		for i, r := range res {
			ids[i] = r.ID
		}
		acc.Add(metrics.ScoreRetrieval(ids, q.Relevant).Recall())
		for i := 1; i < len(res); i++ {
			if res[i].Score > res[i-1].Score {
				t.Fatal("results not sorted")
			}
		}
	}
	if acc.Mean() < 0.4 {
		t.Errorf("SIFT mean scene recall %v too low", acc.Mean())
	}
}

func TestSIFTValidation(t *testing.T) {
	s := NewSIFT()
	if _, err := s.Build(nil); err == nil {
		t.Error("empty corpus should fail")
	}
	ds := dataset(t)
	if _, err := s.Build(ds.Photos[:10]); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(ds.Photos[0]); err == nil {
		t.Error("duplicate insert should fail")
	}
	if _, err := s.Search(core.Probe{}, 5); err == nil {
		t.Error("nil probe image should fail")
	}
	if _, err := s.Search(core.Probe{Img: ds.Photos[0].Img}, 0); err == nil {
		t.Error("topK 0 should fail")
	}
}

func TestPCASIFTBuildAndSearch(t *testing.T) {
	ds := dataset(t)
	p := NewPCASIFT()
	st, err := p.Build(ds.Photos)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if st.Photos != len(ds.Photos) {
		t.Fatalf("built %d photos", st.Photos)
	}
	if ev := p.pca.ExplainedVariance(); ev <= 0 || ev > 1+1e-9 {
		t.Errorf("explained variance %v", ev)
	}
	// PCA-SIFT's index must be smaller than SIFT's (Table IV ordering).
	s := NewSIFT()
	if _, err := s.Build(ds.Photos); err != nil {
		t.Fatal(err)
	}
	if p.IndexBytes() >= s.IndexBytes() {
		t.Errorf("PCA-SIFT index %dB not smaller than SIFT %dB", p.IndexBytes(), s.IndexBytes())
	}

	qs, _ := ds.Queries(5, 4)
	var acc metrics.Accuracy
	for _, q := range qs {
		res, err := p.Search(core.Probe{Img: q.Probe}, 100)
		if err != nil {
			t.Fatalf("Search: %v", err)
		}
		ids := make([]uint64, len(res))
		for i, r := range res {
			ids[i] = r.ID
		}
		acc.Add(metrics.ScoreRetrieval(ids, q.Relevant).Recall())
	}
	if acc.Mean() < 0.3 {
		t.Errorf("PCA-SIFT mean recall %v too low", acc.Mean())
	}
}

func TestPCASIFTUnbuiltErrors(t *testing.T) {
	p := NewPCASIFT()
	ds := dataset(t)
	if err := p.Insert(ds.Photos[0]); err == nil {
		t.Error("Insert before Build should fail")
	}
	if _, err := p.Search(core.Probe{Img: ds.Photos[0].Img}, 5); err == nil {
		t.Error("Search before Build should fail")
	}
}

func TestRNPEBuildAndSearch(t *testing.T) {
	ds := dataset(t)
	r := NewRNPE()
	st, err := r.Build(ds.Photos)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if st.Photos != len(ds.Photos) || len(r.byID) != len(ds.Photos) {
		t.Fatalf("built %d/%d", st.Photos, len(r.byID))
	}

	qs, _ := ds.Queries(6, 5)
	var acc metrics.Accuracy
	for _, q := range qs {
		loc := sceneLoc(ds, q.Scene)
		res, err := r.Search(core.Probe{Img: q.Probe, Loc: &loc}, 1000)
		if err != nil {
			t.Fatalf("Search: %v", err)
		}
		ids := make([]uint64, len(res))
		for i, rr := range res {
			ids[i] = rr.ID
		}
		acc.Add(metrics.ScoreRetrieval(ids, q.Relevant).Recall())
	}
	// Tags are error-prone: recall should be high but meaningfully below 1
	// (the Table III gap).
	if acc.Mean() < 0.8 {
		t.Errorf("RNPE recall %v unexpectedly low", acc.Mean())
	}
	if acc.Mean() > 0.995 {
		t.Errorf("RNPE recall %v should show the tag-error ceiling", acc.Mean())
	}
}

func TestRNPERequiresLocation(t *testing.T) {
	ds := dataset(t)
	r := NewRNPE()
	if _, err := r.Build(ds.Photos); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Search(core.Probe{Img: ds.Photos[0].Img}, 5); err == nil {
		t.Error("RNPE without location should fail")
	}
}

func TestRNPEExactTagsPerfectRecall(t *testing.T) {
	ds := dataset(t)
	r := NewRNPE()
	r.TagErrorRate = -1 // exact tags
	if _, err := r.Build(ds.Photos); err != nil {
		t.Fatal(err)
	}
	qs, _ := ds.Queries(4, 6)
	for _, q := range qs {
		loc := sceneLoc(ds, q.Scene)
		res, err := r.Search(core.Probe{Loc: &loc}, 10000)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]uint64, len(res))
		for i, rr := range res {
			ids[i] = rr.ID
		}
		rec := metrics.ScoreRetrieval(ids, q.Relevant).Recall()
		if rec < 0.999 {
			t.Errorf("scene %d: exact-tag recall %v, want ~1", q.Scene, rec)
		}
	}
}

func TestRNPEUnbuiltInsertFails(t *testing.T) {
	r := NewRNPE()
	ds := dataset(t)
	if err := r.Insert(ds.Photos[0]); err == nil {
		t.Error("Insert before Build should fail")
	}
}

func TestPipelineInterfaces(t *testing.T) {
	var pipelines = []core.Pipeline{NewSIFT(), NewPCASIFT(), NewRNPE()}
	names := map[string]bool{}
	for _, p := range pipelines {
		names[p.Name()] = true
	}
	if !names["SIFT"] || !names["PCA-SIFT"] || !names["RNPE"] {
		t.Errorf("pipeline names = %v", names)
	}
}
