package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// `bench compare <dirA> <dirB>` is the A/A and A/B tool: it reads two sets
// of result files (written with -out), and for every workload × end-to-end
// metric prints both sides' medians and quartiles, the relative difference,
// and a verdict against the bound BENCHMARK.json fixes:
//
//	PASS        B's median is no worse than A's by more than the bound
//	FAIL        it is
//	UNRESOLVED  a side's own spread (IQR ÷ median) is wider than the bound,
//	            so the runs cannot tell
//
// Quartiles are Python's statistics.quantiles(n=4), as the acceptance
// driver computes them. Comparing a directory with itself shows its spreads.

type side struct {
	values []float64
}

func (s side) stats() (q1, med, q3, spread float64) {
	q1, med, q3 = quartiles(s.values)
	if med != 0 {
		spread = (q3 - q1) / med
	}
	return
}

// verdict judges B against A for one metric.
func verdict(a, b side, better string, bound float64) (string, float64) {
	_, ma, _, sa := a.stats()
	_, mb, _, sb := b.stats()
	if ma == 0 {
		return "UNRESOLVED", 0
	}
	worse := (mb - ma) / ma // positive = B is worse, for lower-is-better
	if better == "higher" {
		worse = -worse
	}
	switch {
	case len(a.values) < 2 || len(b.values) < 2:
		return "UNRESOLVED", worse
	case sa > bound || sb > bound:
		return "UNRESOLVED", worse
	case worse > bound:
		return "FAIL", worse
	}
	return "PASS", worse
}

// loadResults reads every untraced result file under dir, keyed by
// workload then metric.
func loadResults(dir string) (map[string]map[string]*side, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string]map[string]*side{}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rf resultFile
		if err := json.Unmarshal(raw, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if rf.Trace || rf.Workload == "" {
			continue
		}
		if !rf.Correct {
			return nil, fmt.Errorf("%s: run was not correct; its timings are not comparable", p)
		}
		w := out[rf.Workload]
		if w == nil {
			w = map[string]*side{}
			out[rf.Workload] = w
		}
		for name, mv := range rf.Metrics {
			if w[name] == nil {
				w[name] = &side{}
			}
			w[name].values = append(w[name].values, mv.Value)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no untraced result files", dir)
	}
	return out, nil
}

func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark contract holding the bounds")
	fs.Usage = func() { fmt.Fprintln(os.Stderr, "usage: bench compare [-spec BENCHMARK.json] <dirA> <dirB>") }
	_ = fs.Parse(args) // ExitOnError
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	a, err := loadResults(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	b, err := loadResults(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	names := make([]string, 0, len(a))
	for w := range a {
		if b[w] != nil {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	fails := 0
	fmt.Printf("%-16s %-22s %4s %12s %12s %12s %7s | %4s %12s %12s %12s %7s | %8s %6s %s\n",
		"workload", "metric", "nA", "q1", "median", "q3", "spread", "nB", "q1", "median", "q3", "spread", "worse", "bound", "verdict")
	for _, w := range names {
		for _, m := range spec.EndToEnd {
			sa, sb := a[w][m.Name], b[w][m.Name]
			if sa == nil || sb == nil {
				continue
			}
			v, worse := verdict(*sa, *sb, m.Better, m.Bound)
			if v == "FAIL" {
				fails++
			}
			a1, am, a3, as := sa.stats()
			b1, bm, b3, bs := sb.stats()
			fmt.Printf("%-16s %-22s %4d %12.6g %12.6g %12.6g %6.2f%% | %4d %12.6g %12.6g %12.6g %6.2f%% | %+7.2f%% %5.1f%% %s\n",
				w, m.Name, len(sa.values), a1, am, a3, 100*as, len(sb.values), b1, bm, b3, 100*bs, 100*worse, 100*m.Bound, v)
		}
	}
	if fails > 0 {
		return 1
	}
	return 0
}
