// Package experiments regenerates every table and figure of the paper's
// evaluation (Section IV) on the synthetic substrate. Each experiment
// prints the measured values next to the paper's reported values so the
// reader can check the *shape* — who wins, by roughly what factor, where
// trends bend — rather than absolute numbers, which depend on the authors'
// 256-node testbed and 200 TB corpus.
//
// Methodology split:
//
//   - Data-structure behaviour (Fig 6 rehash probability, Fig 7 multicore
//     scaling, all accuracy/space results) is measured for real on the
//     scaled corpus.
//   - Cluster-scale latencies (Fig 3, Fig 4, Fig 5) are *projected*: real
//     per-photo/per-query costs measured on the scaled corpus are combined
//     with the store package's device models and the cluster package's
//     queueing simulator at the paper's scale (21M/39M photos, 256 nodes).
//     The FAST engine only counts its storage accesses; fastPipeline turns
//     the counts into modeled time, while the baselines model their own.
//
// The per-experiment index in DESIGN.md maps each experiment to its
// modules; EXPERIMENTS.md records a full paper-vs-measured comparison.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"github.com/fastrepro/fast/internal/baseline"
	"github.com/fastrepro/fast/internal/core"
	"github.com/fastrepro/fast/internal/workload"
)

// Options configures a harness run.
type Options struct {
	// Scale divides the paper's photo counts; 0 means 20000
	// (1050 Wuhan / 1950 Shanghai photos).
	Scale int
	// Queries is the number of real queries per accuracy cell; 0 means 15.
	Queries int
	// Seed randomizes workloads deterministically.
	Seed int64
	// Out receives the reports.
	Out io.Writer
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 20000
	}
	if o.Queries <= 0 {
		o.Queries = 15
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

// builtPipeline couples a pipeline with its build statistics.
type builtPipeline struct {
	p     core.Pipeline
	build core.BuildStats
	// buildSim is the SimCost accumulated during Build only.
	buildSim core.SimCost
}

// dsEnv is one dataset's lazily provisioned state.
type dsEnv struct {
	ds        *workload.Dataset
	pipelines map[string]*builtPipeline
}

// Env provisions datasets and built pipelines once per run.
type Env struct {
	opts Options
	sets map[string]*dsEnv
}

// NewEnv returns an empty environment.
func NewEnv(opts Options) *Env {
	return &Env{opts: opts.withDefaults(), sets: make(map[string]*dsEnv)}
}

// Opts returns the effective options.
func (e *Env) Opts() Options { return e.opts }

// Dataset returns (generating on first use) the named dataset:
// "Wuhan" or "Shanghai".
func (e *Env) Dataset(name string) (*workload.Dataset, error) {
	if env, ok := e.sets[name]; ok {
		return env.ds, nil
	}
	var spec workload.Spec
	switch name {
	case "Wuhan":
		spec = workload.Wuhan(e.opts.Scale)
	case "Shanghai":
		spec = workload.Shanghai(e.opts.Scale)
	default:
		return nil, fmt.Errorf("experiments: unknown dataset %q", name)
	}
	fmt.Fprintf(e.opts.Out, "[env] generating %s dataset (%d photos, scale 1:%d)...\n",
		name, spec.Photos, e.opts.Scale)
	ds, err := workload.Generate(spec)
	if err != nil {
		return nil, err
	}
	e.sets[name] = &dsEnv{ds: ds, pipelines: make(map[string]*builtPipeline)}
	return ds, nil
}

// SchemeNames lists the four schemes in the paper's presentation order.
func SchemeNames() []string { return []string{"SIFT", "PCA-SIFT", "RNPE", "FAST"} }

// newPipeline constructs an unbuilt pipeline by scheme name.
func newPipeline(name string, seed int64) (core.Pipeline, error) {
	switch name {
	case "SIFT":
		return baseline.NewSIFT(), nil
	case "PCA-SIFT":
		return baseline.NewPCASIFT(), nil
	case "RNPE":
		r := baseline.NewRNPE()
		r.Seed = seed
		return r, nil
	case "FAST":
		return fastPipeline{core.NewEngine(core.Config{})}, nil
	default:
		return nil, fmt.Errorf("experiments: unknown scheme %q", name)
	}
}

// Pipeline returns (building on first use) the named scheme indexed over
// the named dataset.
func (e *Env) Pipeline(dataset, scheme string) (*builtPipeline, error) {
	ds, err := e.Dataset(dataset)
	if err != nil {
		return nil, err
	}
	env := e.sets[dataset]
	if bp, ok := env.pipelines[scheme]; ok {
		return bp, nil
	}
	p, err := newPipeline(scheme, e.opts.Seed)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(e.opts.Out, "[env] building %s index over %s (%d photos)...\n",
		scheme, dataset, len(ds.Photos))
	t0 := time.Now()
	st, err := p.Build(ds.Photos)
	if err != nil {
		return nil, fmt.Errorf("experiments: building %s over %s: %w", scheme, dataset, err)
	}
	fmt.Fprintf(e.opts.Out, "[env] built %s/%s in %v\n", scheme, dataset, time.Since(t0).Round(time.Millisecond))
	bp := &builtPipeline{p: p, build: st, buildSim: p.SimCost()}
	env.pipelines[scheme] = bp
	return bp, nil
}

// queryProbe adapts a workload query to a core.Probe, attaching the geo
// hint tag-based schemes need.
func queryProbe(ds *workload.Dataset, q workload.Query) core.Probe {
	probe := core.Probe{Img: q.Probe}
	for _, p := range ds.Photos {
		if p.Scene == q.Scene {
			loc := p.Loc
			probe.Loc = &loc
			break
		}
	}
	return probe
}

// Experiment is one runnable reproduction unit.
type Experiment struct {
	ID    string // e.g. "fig3"
	Title string
	Run   func(e *Env) error
}

// All returns the experiments in paper order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Table I (executable): FAST vs Spyglass/SmartStore designs", RunTable1},
		{"table2", "Table II: properties of the collected image sets", RunTable2},
		{"fig3", "Figure 3: index construction latency", RunFig3},
		{"fig4", "Figure 4: average query latency vs concurrent requests", RunFig4},
		{"table3", "Table III: query accuracy normalized to SIFT", RunTable3},
		{"table4", "Table IV: space overhead normalized to SIFT", RunTable4},
		{"fig5", "Figure 5: insertion latency", RunFig5},
		{"fig6", "Figure 6: insertion failure (rehash) probability", RunFig6},
		{"fig7", "Figure 7: multicore-enabled parallel queries", RunFig7},
		{"fig8a", "Figure 8a: network transmission overhead", RunFig8a},
		{"fig8b", "Figure 8b: smartphone energy consumption", RunFig8b},
		{"ablation", "Ablations: design-choice sweeps", RunAblation},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, error) {
	for _, ex := range All() {
		if ex.ID == id {
			return ex, nil
		}
	}
	ids := make([]string, 0, len(All()))
	for _, ex := range All() {
		ids = append(ids, ex.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, ids)
}

// header prints a section banner.
func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n================================================================\n%s\n================================================================\n", title)
}

// fmtDur renders durations compactly.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Minute:
		return fmt.Sprintf("%.1fmin", d.Minutes())
	case d >= time.Second:
		return fmt.Sprintf("%.1fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1000)
	}
}

// fmtBytes renders byte counts compactly.
func fmtBytes(b int64) string {
	switch {
	case b >= 1<<40:
		return fmt.Sprintf("%.1fTB", float64(b)/(1<<40))
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
