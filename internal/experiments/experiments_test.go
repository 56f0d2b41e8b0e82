package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/fastrepro/fast/internal/store"
)

// tinyEnv provisions an environment small enough for unit tests:
// scale 1:300000 gives 70 Wuhan / 130 Shanghai photos.
func tinyEnv() (*Env, *bytes.Buffer) {
	var buf bytes.Buffer
	return NewEnv(Options{Scale: 300000, Queries: 2, Seed: 3, Out: &buf}), &buf
}

// TestAllRegistryAndByID pins the registry to the paper's evaluation: the
// twelve tables, figures and the ablation, in paper order, each indexed in
// DESIGN.md. Repo-subsystem measurements live in bench/, not here.
func TestAllRegistryAndByID(t *testing.T) {
	want := []string{"table1", "table2", "fig3", "fig4", "table3", "table4",
		"fig5", "fig6", "fig7", "fig8a", "fig8b", "ablation"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	design, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	for i, ex := range all {
		if ex.ID != want[i] {
			t.Errorf("All()[%d] = %q, want %q", i, ex.ID, want[i])
		}
		got, err := ByID(ex.ID)
		if err != nil || got.ID != ex.ID {
			t.Errorf("ByID(%q) = %v, %v", ex.ID, got.ID, err)
		}
		// `fastbench -list` prints exactly All(); every ID it shows must
		// be findable in DESIGN.md's per-experiment index.
		if !bytes.Contains(design, []byte("`fastbench -exp "+ex.ID+"`")) {
			t.Errorf("DESIGN.md does not index experiment %q", ex.ID)
		}
	}
	for _, id := range []string{"qps", "cache", "ingest", "serve", "snapshot", "cluster", "tiered", "nope"} {
		if _, err := ByID(id); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
			t.Errorf("ByID(%q) error = %v, want unknown experiment", id, err)
		}
	}
}

func TestEnvDatasetCachingAndErrors(t *testing.T) {
	e, _ := tinyEnv()
	a, err := e.Dataset("Wuhan")
	if err != nil {
		t.Fatalf("Dataset: %v", err)
	}
	b, err := e.Dataset("Wuhan")
	if err != nil || a != b {
		t.Error("dataset not cached")
	}
	if _, err := e.Dataset("Paris"); err == nil {
		t.Error("unknown dataset should fail")
	}
}

func TestEnvPipelineCaching(t *testing.T) {
	e, _ := tinyEnv()
	a, err := e.Pipeline("Wuhan", "FAST")
	if err != nil {
		t.Fatalf("Pipeline: %v", err)
	}
	b, err := e.Pipeline("Wuhan", "FAST")
	if err != nil || a != b {
		t.Error("pipeline not cached")
	}
	if _, err := e.Pipeline("Wuhan", "BOGUS"); err == nil {
		t.Error("unknown scheme should fail")
	}
}

func TestRunTable1(t *testing.T) {
	e, buf := tinyEnv()
	if err := RunTable1(e); err != nil {
		t.Fatalf("RunTable1: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"FAST (LSH+cuckoo)", "Spyglass (K-D tree)", "SmartStore (LSI)"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunTable2(t *testing.T) {
	e, buf := tinyEnv()
	if err := RunTable2(e); err != nil {
		t.Fatalf("RunTable2: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"Wuhan", "Shanghai", "Landmarks", "jpeg"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunTable4(t *testing.T) {
	e, buf := tinyEnv()
	if err := RunTable4(e); err != nil {
		t.Fatalf("RunTable4: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"SIFT", "PCA-SIFT", "RNPE", "FAST", "shape check"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunFig3(t *testing.T) {
	e, buf := tinyEnv()
	if err := RunFig3(e); err != nil {
		t.Fatalf("RunFig3: %v", err)
	}
	if !strings.Contains(buf.String(), "feature") {
		t.Error("Fig3 output missing feature column")
	}
}

func TestRunFig6(t *testing.T) {
	e, buf := tinyEnv()
	if err := RunFig6(e); err != nil {
		t.Fatalf("RunFig6: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "standard cuckoo") || !strings.Contains(out, "FAST flat") {
		t.Error("Fig6 output missing variants")
	}
}

func TestRunFig7(t *testing.T) {
	e, buf := tinyEnv()
	if err := RunFig7(e); err != nil {
		t.Fatalf("RunFig7: %v", err)
	}
	if !strings.Contains(buf.String(), "speedup") {
		t.Error("Fig7 output missing speedup column")
	}
}

func TestProjectBuildScalesWithCorpus(t *testing.T) {
	e, _ := tinyEnv()
	bp, err := e.Pipeline("Wuhan", "FAST")
	if err != nil {
		t.Fatal(err)
	}
	clu := DefaultPaperCluster()
	fw, sw := projectBuild(bp, "Wuhan", clu)
	fs, ss := projectBuild(bp, "Shanghai", clu)
	if fw <= 0 || sw <= 0 {
		t.Fatalf("projection not positive: %v, %v", fw, sw)
	}
	// Shanghai's corpus is larger, so the projected times must be larger.
	if fs <= fw || ss < sw {
		t.Errorf("projection does not scale with corpus: wuhan (%v,%v) shanghai (%v,%v)", fw, sw, fs, ss)
	}
}

// TestFASTSimCostModelsEngineCounts pins the split between engine and
// harness: the engine counts one access per stored photo, and fastPipeline
// models the counts as RAM time within a nanosecond per access of charging
// every store separately (the per-call transfer truncation).
func TestFASTSimCostModelsEngineCounts(t *testing.T) {
	e, _ := tinyEnv()
	bp, err := e.Pipeline("Wuhan", "FAST")
	if err != nil {
		t.Fatal(err)
	}
	eng := bp.p.(fastPipeline).Engine
	sc := bp.p.SimCost()
	if sc.Accesses != int64(eng.Len()) {
		t.Fatalf("Accesses = %d, want one per photo (%d)", sc.Accesses, eng.Len())
	}
	ram := store.RAM()
	var perStore time.Duration
	for _, id := range eng.IDs() {
		s, ok := eng.SummaryOf(id)
		if !ok {
			t.Fatalf("SummaryOf(%d) missing", id)
		}
		perStore += ram.RandomWrite(int64(s.SizeBytes()))
	}
	t.Logf("%d accesses, %d B: modeled %v, per-store %v", sc.Accesses, sc.BytesMoved, sc.StorageTime, perStore)
	if diff := sc.StorageTime - perStore; diff < 0 || diff > time.Duration(sc.Accesses) {
		t.Errorf("StorageTime %v vs per-store charges %v: difference %v outside [0, %dns]",
			sc.StorageTime, perStore, diff, sc.Accesses)
	}
}

func TestPaperPhotos(t *testing.T) {
	if paperPhotos("Wuhan") != 21_000_000 || paperPhotos("Shanghai") != 39_000_000 {
		t.Error("paper corpus sizes wrong")
	}
	if paperPhotos("X") != 0 {
		t.Error("unknown dataset should be 0")
	}
}

func TestFormattingHelpers(t *testing.T) {
	if got := fmtBytes(512); got != "512B" {
		t.Errorf("fmtBytes(512) = %s", got)
	}
	if got := fmtBytes(2 << 20); !strings.Contains(got, "MB") {
		t.Errorf("fmtBytes(2MB) = %s", got)
	}
	if got := fmtBytes(3 << 40); !strings.Contains(got, "TB") {
		t.Errorf("fmtBytes(3TB) = %s", got)
	}
}

func TestProjectQueryShapes(t *testing.T) {
	// The Figure 4 service-time model must preserve the paper's ordering at
	// paper scale: SIFT > PCA-SIFT > FAST, with RNPE serialized.
	clu := DefaultPaperCluster()
	m := measuredQuery{
		perPhotoBytes: 14_000,                 // SIFT-class footprint
		matchPerPhoto: 300 * time.Microsecond, // per stored photo
		groupFrac:     0.05,
		realQuery:     5 * time.Millisecond,
	}
	sift := projectQuery("SIFT", m, "Wuhan", clu)
	mSmall := m
	mSmall.perPhotoBytes = 2_200
	mSmall.matchPerPhoto = 60 * time.Microsecond
	pca := projectQuery("PCA-SIFT", mSmall, "Wuhan", clu)
	rnpe := projectQuery("RNPE", m, "Wuhan", clu)
	fast := projectQuery("FAST", m, "Wuhan", clu)

	if !(sift.Service > pca.Service && pca.Service > fast.Service) {
		t.Errorf("ordering violated: sift %v, pca %v, fast %v", sift.Service, pca.Service, fast.Service)
	}
	if !rnpe.Serialized || sift.Serialized || fast.Serialized {
		t.Error("serialization flags wrong")
	}
	if fast.Service != m.realQuery {
		t.Errorf("FAST service %v should equal measured %v", fast.Service, m.realQuery)
	}
	if unknown := projectQuery("NOPE", m, "Wuhan", clu); unknown.Service != 0 {
		t.Error("unknown scheme should project to zero")
	}
}
