// Command bench is the repository's one benchmark: four long workloads,
// thirteen end-to-end metrics and a per-layer ladder, measured from outside
// the program by timing calls into public functions, reading public
// counters and wrapping Handler()s in timing middleware. See README.md.
//
//	bench -workload <name|all> -seed <n> [-seconds <s>] [-trace 0|1] [-out dir]
//	bench compare <dirA> <dirB>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 15

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		workloadName = flag.String("workload", "", "workload to run: fe_ingest_query, search_tiered, serve_mixed, cluster_rf2 or all")
		seed         = flag.Int64("seed", 1, "seed every input derives from")
		seconds      = flag.Float64("seconds", defaultSeconds, "length of the timed window")
		trace        = flag.Int("trace", 0, "1 records spans and replays the layer ladder (per-layer metrics); 0 reports the end-to-end metrics")
		out          = flag.String("out", "", "directory for the result JSON and spans.jsonl (default: none)")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	var todo []workloadDecl
	if *workloadName == "all" {
		todo = workloads
	} else if w := findWorkload(*workloadName); w != nil {
		todo = []workloadDecl{*w}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
		flag.Usage()
		os.Exit(2)
	}

	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(loadCallers())
	if nproc < 2 {
		fmt.Println("WARNING: 1 CPU: callers capped at 1, results are degraded and not comparable with 2-core runs")
	}

	code := 0
	for _, w := range todo {
		r := newRun(w.Name, *seed, *seconds, *trace == 1)
		err := r.execute(w.Run)
		if err == nil {
			err = r.complete()
		}
		if err != nil {
			// Nothing is printed as a result: a run that could not be set
			// up or that lost a metric is not a measurement.
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
			os.Exit(1)
		}
		if err := r.report(*out); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
			os.Exit(1)
		}
		if !r.correct() {
			code = 1
		}
	}
	os.Exit(code)
}

// loadCallers is the number of caller goroutines / HTTP connections and
// the GOMAXPROCS the benchmark runs at: min(2, nproc).
func loadCallers() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

type opCount struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
}

// run is one workload execution: its arguments, the clock that separates
// set-up from timed phases, and everything it measured.
type run struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	callers  int
	tmp      string
	tr       *tracer
	host     *hostProbe

	start    time.Time
	timed    time.Duration // time spent in timed phases so far
	heapBase uint64
	fp       fingerprint

	metrics map[string]float64
	ops     map[string]*opCount
	layers  []layerRow
	info    map[string]float64 // side figures for the result file (segment counts, phase lengths)
	// segments holds the query phase's per-segment values (warm-up dropped).
	segments map[string][]float64
}

func newRun(workload string, seed int64, seconds float64, trace bool) *run {
	return &run{
		workload: workload, seed: seed, seconds: seconds, trace: trace,
		callers: loadCallers(), tr: newTracer(),
		metrics: map[string]float64{}, ops: map[string]*opCount{}, info: map[string]float64{},
	}
}

// execute runs the workload inside a temp dir under the working directory
// (the benchmark writes nowhere else) and removes it afterwards.
func (r *run) execute(fn func(*run) error) error {
	base := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(base, r.workload+"-")
	if err != nil {
		return err
	}
	r.tmp = tmp
	defer os.RemoveAll(tmp)
	r.host = startHostProbe()
	defer r.host.close()
	r.start = time.Now()
	return fn(r)
}

func (r *run) window() time.Duration { return time.Duration(r.seconds * float64(time.Second)) }

// phase runs fn as a timed phase: a GC first (outside the clock), then the
// elapsed time is charged to the timed window instead of to set-up.
func (r *run) phase(fn func()) {
	runtime.GC()
	t0 := time.Now()
	fn()
	r.timed += time.Since(t0)
}

// queryBudget is what is left of the window for the query phase, which
// runs last; never less than a third of the window.
func (r *run) queryBudget() time.Duration {
	left := r.window() - r.timed
	if min := r.window() / 3; left < min {
		left = min
	}
	return left
}

// setupDone records setup_s: everything since the start that was not a
// timed phase. Called as the last timed phase begins.
func (r *run) setupDone() {
	r.set("setup_s", (time.Since(r.start) - r.timed).Seconds())
}

// set records a metric; a name the vocabulary does not declare is a bug.
func (r *run) set(name string, v float64) {
	if _, ok := unitOf(endToEnd, name); !ok {
		if _, ok := unitOf(perLayer, name); !ok {
			panic("bench: undeclared metric " + name)
		}
	}
	r.metrics[name] = v
}

// absent reports 0 for every per-layer metric under the given package
// prefixes: those layers are not on this workload's path.
func (r *run) absent(prefixes ...string) {
	for _, d := range perLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(d.Name, p) {
				if _, set := r.metrics[d.Name]; !set {
					r.metrics[d.Name] = 0
				}
			}
		}
	}
}

func (r *run) count(kind string, attempted, failed int) {
	c := r.ops[kind]
	if c == nil {
		c = &opCount{}
		r.ops[kind] = c
	}
	c.Attempted += attempted
	c.Failed += failed
}

func (r *run) totals() (attempted, failed int) {
	for _, c := range r.ops {
		attempted += c.Attempted
		failed += c.Failed
	}
	return attempted, failed
}

func (r *run) correct() bool {
	_, failed := r.totals()
	return failed == 0
}

// heapBaseline takes the reading heap_mb is measured against: after the
// inputs exist, before the engine is built.
func (r *run) heapBaseline() { r.heapBase = heapAfterGC() }

// heapMB is live heap now minus the baseline, never below a floor of 1 KB
// so the metric cannot read 0.
func heapMB(now, base uint64) float64 {
	if now <= base+1024 {
		return 1024.0 / (1 << 20)
	}
	return float64(now-base) / (1 << 20)
}

// heapAfterGC collects twice — sync.Pool contents survive one collection in
// the victim cache — and reads the live heap.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// complete checks that the run produced every metric its mode owes.
func (r *run) complete() error {
	decls := endToEnd
	if r.trace {
		decls = perLayer
	}
	for _, d := range decls {
		if _, ok := r.metrics[d.Name]; !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
	}
	if a, _ := r.totals(); a < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the object printed as the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultFile is what -out stores; README.md documents every field.
type resultFile struct {
	Workload    string                 `json:"workload"`
	Seed        int64                  `json:"seed"`
	Seconds     float64                `json:"seconds"`
	Trace       bool                   `json:"trace"`
	Correct     bool                   `json:"correct"`
	Degraded    bool                   `json:"degraded"`
	Fingerprint string                 `json:"input_fingerprint"`
	Host        hostFacts              `json:"host"`
	WallS       float64                `json:"wall_s"`
	Ops         map[string]*opCount    `json:"ops"`
	Metrics     map[string]metricValue `json:"metrics"`
	Layers      []layerRow             `json:"layers,omitempty"`
	Info        map[string]float64     `json:"info,omitempty"`
	Segments    map[string][]float64   `json:"segments,omitempty"`
}

type hostFacts struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOGC       string `json:"gogc"`
	Commit     string `json:"commit"`
}

func host() hostFacts {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return hostFacts{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOGC: gogc, Commit: commit,
	}
}

// report prints every measured metric by name and unit, writes the result
// file when asked, and ends with the one-line JSON result.
func (r *run) report(outDir string) error {
	h := host()
	wall := time.Since(r.start).Seconds()
	attempted, failed := r.totals()
	fmt.Printf("workload %s seed %d seconds %g trace %v fingerprint %s\n", r.workload, r.seed, r.seconds, r.trace, r.fp)
	fmt.Printf("host nproc=%d GOMAXPROCS=%d %s GOGC=%s commit=%s wall=%.1fs\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.GOGC, h.Commit, wall)

	all := map[string]metricValue{}
	names := make([]string, 0, len(r.metrics))
	for name, v := range r.metrics {
		unit, ok := unitOf(endToEnd, name)
		if !ok {
			unit, _ = unitOf(perLayer, name)
		}
		all[name] = metricValue{Value: v, Unit: unit}
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("metric %-36s %14.6g %s\n", name, all[name].Value, all[name].Unit)
	}
	for _, row := range r.layers {
		fmt.Printf("layer  %-36s count %6d  p50 %10.1f us  self %10.1f us\n", row.Name, row.Count, row.P50us, row.Selfus)
	}
	kinds := make([]string, 0, len(r.ops))
	for k := range r.ops {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Printf("ops    %-36s attempted %7d  failed %d\n", k, r.ops[k].Attempted, r.ops[k].Failed)
	}

	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		stem := fmt.Sprintf("%s-seed%d-trace%d-%d", r.workload, r.seed, b2i(r.trace), time.Now().UnixNano())
		rf := resultFile{
			Workload: r.workload, Seed: r.seed, Seconds: r.seconds, Trace: r.trace,
			Correct: failed == 0, Degraded: h.NProc < 2, Fingerprint: r.fp.String(),
			Host: h, WallS: wall, Ops: r.ops, Metrics: all, Layers: r.layers, Info: r.info, Segments: r.segments,
		}
		raw, err := json.MarshalIndent(rf, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(outDir, stem+".json"), append(raw, '\n'), 0o644); err != nil {
			return err
		}
		if r.trace {
			if err := r.tr.writeSpans(filepath.Join(outDir, stem+".spans.jsonl")); err != nil {
				return err
			}
		}
	}

	decls := endToEnd
	if r.trace {
		decls = perLayer
	}
	line := resultLine{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range decls {
		line.Metrics[d.Name] = all[d.Name]
	}
	raw, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(raw))
	return nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
