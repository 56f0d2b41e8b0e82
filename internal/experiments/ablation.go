package experiments

import (
	"fmt"
	"math/rand"

	"github.com/fastrepro/fast/internal/bloom"
	"github.com/fastrepro/fast/internal/core"
	"github.com/fastrepro/fast/internal/cuckoo"
	"github.com/fastrepro/fast/internal/feature"
	"github.com/fastrepro/fast/internal/lsh"
	"github.com/fastrepro/fast/internal/metrics"
)

// RunAblation sweeps the design choices DESIGN.md calls out:
//
//  1. MinHash banding (bands x rows) — recall vs candidate-set size, the
//     false-negative/false-positive trade of Section III-C2;
//  2. the paper's p-stable family vs MinHash on the same summaries;
//  3. cuckoo neighborhood width ν — failure probability vs probe fan-out
//     (the Figure 6 mechanism);
//  4. Bloom summary size — accuracy vs space (the Table III/IV trade);
//  5. FE front end — DoG scale-space detection vs Harris corners (how much
//     accuracy depends on the detector's invariance properties).
func RunAblation(e *Env) error {
	w := e.Opts().Out
	header(w, "Ablations")

	ds, err := e.Dataset("Wuhan")
	if err != nil {
		return err
	}
	qs, err := ds.Queries(10, e.Opts().Seed+99)
	if err != nil {
		return err
	}

	// --- 1. MinHash banding sweep ---
	fmt.Fprintf(w, "\n[1] LSH banding (MinHash bands x rows): recall vs precision vs candidates\n")
	fmt.Fprintf(w, "%-12s | %8s %10s %12s\n", "bands x rows", "recall", "precision", "cand. frac")
	for _, cfg := range []lsh.MinHashParams{
		{Bands: 4, Rows: 1}, {Bands: 7, Rows: 1}, {Bands: 14, Rows: 1},
		{Bands: 7, Rows: 2}, {Bands: 14, Rows: 2},
	} {
		eng := core.NewEngine(core.Config{LSH: cfg})
		if _, err := eng.Build(ds.Photos); err != nil {
			return err
		}
		var acc, prec metrics.Accuracy
		var cand int
		for _, q := range qs {
			res, err := eng.Query(q.Probe, len(ds.Photos))
			if err != nil {
				return err
			}
			ids := make([]uint64, len(res))
			for i, r := range res {
				ids[i] = r.ID
			}
			ret := metrics.ScoreRetrieval(ids, q.Relevant)
			acc.Add(ret.Recall())
			prec.Add(ret.Precision())
			cand += len(res)
		}
		frac := float64(cand) / float64(len(qs)*len(ds.Photos))
		fmt.Fprintf(w, "%5dx%-6d | %8.3f %10.3f %12.3f\n", cfg.Bands, cfg.Rows, acc.Mean(), prec.Mean(), frac)
	}
	fmt.Fprintf(w, "(more bands -> higher recall and larger candidate sets; rows=2 prunes\n")
	fmt.Fprintf(w, " aggressively but loses recall — the paper prioritizes false negatives)\n")

	// --- 2. p-stable vs MinHash on identical summaries ---
	fmt.Fprintf(w, "\n[2] p-stable LSH (paper family) vs MinHash on the same summaries\n")
	if err := ablatePStable(e, w); err != nil {
		return err
	}

	// --- 3. Cuckoo neighborhood sweep ---
	fmt.Fprintf(w, "\n[3] flat-cuckoo neighborhood ν: failure probability and probe width at 96%% load\n")
	fmt.Fprintf(w, "%-6s | %12s %12s\n", "ν", "fail prob", "probe width")
	for _, nu := range []int{0, 1, 2, 4, 8} {
		const capacity = 1 << 14
		fails, attempts := 0, 0
		for trial := 0; trial < 8; trial++ {
			tb, err := cuckoo.NewFlat(capacity, nu, 0, e.Opts().Seed+int64(trial))
			if err != nil {
				return err
			}
			rng := rand.New(rand.NewSource(int64(trial) + 5))
			for i := 0; i < capacity*96/100; i++ {
				attempts++
				if err := tb.Insert(rng.Uint64()|1, 1); err != nil {
					fails++
				}
			}
		}
		width := 2 * (nu + 1)
		fmt.Fprintf(w, "%-6d | %12.2e %12d\n", nu, float64(fails)/float64(attempts), width)
	}
	fmt.Fprintf(w, "(wider neighborhoods trade constant probe fan-out for reliability)\n")

	// --- 4. Bloom summary size sweep ---
	fmt.Fprintf(w, "\n[4] Bloom summary size: recall/precision vs per-image summary bytes\n")
	fmt.Fprintf(w, "%-8s | %8s %10s %14s\n", "bits", "recall", "precision", "bytes/image")
	for _, bits := range []uint32{1024, 4096, 8192, 16384} {
		eng := core.NewEngine(core.Config{Summary: bloom.SummaryConfig{Bits: bits}})
		if _, err := eng.Build(ds.Photos); err != nil {
			return err
		}
		var acc, prec metrics.Accuracy
		for _, q := range qs {
			res, err := eng.Query(q.Probe, len(ds.Photos))
			if err != nil {
				return err
			}
			ids := make([]uint64, len(res))
			for i, r := range res {
				ids[i] = r.ID
			}
			ret := metrics.ScoreRetrieval(ids, q.Relevant)
			acc.Add(ret.Recall())
			prec.Add(ret.Precision())
		}
		perImage := float64(eng.IndexBytes()) / float64(len(ds.Photos))
		fmt.Fprintf(w, "%-8d | %8.3f %10.3f %14.0f\n", bits, acc.Mean(), prec.Mean(), perImage)
	}
	fmt.Fprintf(w, "(small filters inflate similarity through bit collisions: recall rises,\n")
	fmt.Fprintf(w, " precision falls — the false-positive/space trade of Tables III/IV)\n")

	// --- 5. FE front end: DoG vs Harris ---
	fmt.Fprintf(w, "\n[5] FE front end: DoG scale space vs Harris corners\n")
	fmt.Fprintf(w, "%-10s | %8s %10s\n", "detector", "recall", "precision")
	for _, det := range []struct {
		name string
		cfg  feature.DetectConfig
	}{
		{"DoG", feature.DetectConfig{}},
		{"Harris", feature.DetectConfig{UseHarris: true}},
	} {
		eng := core.NewEngine(core.Config{Detect: det.cfg})
		if _, err := eng.Build(ds.Photos); err != nil {
			return err
		}
		var acc, prec metrics.Accuracy
		for _, q := range qs {
			res, err := eng.Query(q.Probe, len(ds.Photos))
			if err != nil {
				return err
			}
			ids := make([]uint64, len(res))
			for i, r := range res {
				ids[i] = r.ID
			}
			ret := metrics.ScoreRetrieval(ids, q.Relevant)
			acc.Add(ret.Recall())
			prec.Add(ret.Precision())
		}
		fmt.Fprintf(w, "%-10s | %8.3f %10.3f\n", det.name, acc.Mean(), prec.Mean())
	}
	fmt.Fprintf(w, "(on this corpus, whose perturbations zoom by at most ±25%%, Harris's denser\n")
	fmt.Fprintf(w, " and highly repeatable corners recall more than DoG; DoG's scale-space\n")
	fmt.Fprintf(w, " invariance — the paper's choice — pays off under the larger viewpoint\n")
	fmt.Fprintf(w, " changes of real photography, Section III-B)\n")
	return nil
}

// ablatePStable compares the two LSH families over the engine's real
// summaries: it indexes every photo's summary under both families and
// reports recall of scene groups and candidate fractions.
func ablatePStable(e *Env, w interface{ Write([]byte) (int, error) }) error {
	ds, err := e.Dataset("Wuhan")
	if err != nil {
		return err
	}
	bp, err := e.Pipeline("Wuhan", "FAST")
	if err != nil {
		return err
	}
	eng := bp.p.(fastPipeline).Engine

	// Collect summaries via the engine's public Summarize.
	summaries := make(map[uint64]*bloom.Filter, len(ds.Photos))
	for _, p := range ds.Photos {
		f, err := eng.Summarize(p.Img)
		if err != nil {
			return err
		}
		summaries[p.ID] = f
	}

	dim := int(bloom.SummaryConfig{}.WithDefaults().Bits)
	ps, err := lsh.New(lsh.Params{Dim: dim, Seed: e.Opts().Seed})
	if err != nil {
		return err
	}
	// The paper's configuration with its multi-probe of adjacent buckets:
	// ±1 on each of the M=10 signature coordinates of every table.
	psProbe, err := lsh.New(lsh.Params{Dim: dim, L: 7, M: 10, Omega: 0.85, Probes: 10, Seed: e.Opts().Seed})
	if err != nil {
		return err
	}
	// A second p-stable index with ω chosen from the data (R estimated by
	// the paper's sampling procedure, ω = 8R so near neighbors collide with
	// p ≈ 0.9 per function).
	sample := make([][]float64, 0, 64)
	for _, f := range summaries {
		sample = append(sample, f.BitVector())
		if len(sample) == 64 {
			break
		}
	}
	r, err := lsh.EstimateR(sample, 0.5)
	if err != nil || r == 0 {
		r = 20
	}
	psTuned, err := lsh.New(lsh.Params{Dim: dim, Omega: 8 * r, Seed: e.Opts().Seed})
	if err != nil {
		return err
	}
	mh, err := lsh.NewMinHash(lsh.MinHashParams{Seed: e.Opts().Seed})
	if err != nil {
		return err
	}
	for id, f := range summaries {
		bv := f.BitVector()
		if err := ps.Insert(lsh.ItemID(id), bv); err != nil {
			return err
		}
		if err := psProbe.Insert(lsh.ItemID(id), bv); err != nil {
			return err
		}
		if err := psTuned.Insert(lsh.ItemID(id), bv); err != nil {
			return err
		}
		sp := bloom.ToSparse(f)
		if len(sp.Bits) == 0 {
			continue
		}
		if err := mh.Insert(lsh.ItemID(id), sp.Bits); err != nil {
			return err
		}
	}

	qs, err := ds.Queries(8, e.Opts().Seed+123)
	if err != nil {
		return err
	}
	type fam struct {
		name  string
		query func(f *bloom.Filter) ([]lsh.ItemID, error)
	}
	fams := []fam{
		{"p-stable (L7,M10,ω.85)", func(f *bloom.Filter) ([]lsh.ItemID, error) { return ps.Query(f.BitVector()) }},
		{"p-stable +multi-probe", func(f *bloom.Filter) ([]lsh.ItemID, error) { return psProbe.Query(f.BitVector()) }},
		{fmt.Sprintf("p-stable (ω=8R=%.0f)", 8*r), func(f *bloom.Filter) ([]lsh.ItemID, error) { return psTuned.Query(f.BitVector()) }},
		{"MinHash (L7,M1)", func(f *bloom.Filter) ([]lsh.ItemID, error) {
			sp := bloom.ToSparse(f)
			if len(sp.Bits) == 0 {
				return nil, nil
			}
			return mh.Query(sp.Bits)
		}},
	}
	fmt.Fprintf(w, "%-24s | %8s %12s\n", "family", "recall", "cand. frac")
	for _, fm := range fams {
		var acc metrics.Accuracy
		cand := 0
		for _, q := range qs {
			probe, err := eng.Summarize(q.Probe)
			if err != nil {
				return err
			}
			ids, err := fm.query(probe)
			if err != nil {
				return err
			}
			u := make([]uint64, len(ids))
			for i, id := range ids {
				u[i] = uint64(id)
			}
			acc.Add(metrics.ScoreRetrieval(u, q.Relevant).Recall())
			cand += len(ids)
		}
		frac := float64(cand) / float64(len(qs)*len(ds.Photos))
		fmt.Fprintf(w, "%-24s | %8.3f %12.3f\n", fm.name, acc.Mean(), frac)
	}
	fmt.Fprintf(w, "(at the paper's ω=0.85 nothing collides on these summaries, and probing the\n")
	fmt.Fprintf(w, " adjacent buckets of every coordinate does not change that; with ω tuned to\n")
	fmt.Fprintf(w, " the data the family recalls neighbors but passes most of the corpus — the\n")
	fmt.Fprintf(w, " narrow l2 gap cannot be amplified. MinHash works in Jaccard space, where\n")
	fmt.Fprintf(w, " the same summaries separate cleanly — see the lsh package docs)\n")
	return nil
}
