package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"github.com/fastrepro/fast/internal/bloom"
	"github.com/fastrepro/fast/internal/core"
	"github.com/fastrepro/fast/internal/simimg"
	"github.com/fastrepro/fast/internal/workload"
)

// Input generation. The landmarks (scene ids) are fixed so that runs with
// different seeds measure the same kind of corpus; every photograph, probe,
// id order, schedule and synthetic summary derives from -seed. The program
// under test only ever sees these generated inputs.

const (
	sceneBase  = simimg.SceneID(7000)
	resolution = 64
	// meanSeverity and probeSeverity match internal/workload (photos are
	// rendered at 0.12×(0.5+U), query probes at 0.08), so recall stays
	// comparable with EXPERIMENTS.md.
	meanSeverity  = 0.12
	probeSeverity = 0.08

	// Every engine is Built on the same base corpus, drawn from baseSeed:
	// Build trains the PCA basis, and a basis trained on another sample
	// quantizes descriptors differently, which moves bucket sizes and
	// candidates per query (and with them search time) by tens of percent
	// from seed to seed. The trained basis is the deployment's history, not
	// the traffic; everything after Build derives from -seed.
	baseN    = 500
	baseSeed = 20140816

	corpusIDBase    = uint64(1_000_000)
	freshIDBase     = uint64(2_000_000)
	syntheticIDBase = uint64(3_000_000)
)

// corpus holds a workload's generated photos with their scene ground truth.
// Each photo is a perturbation of its scene's clean raster, which is
// rendered once: simimg.RenderPhoto re-renders the scene per photo (≈2 ms)
// and would make photo generation the largest part of setup_s.
type corpus struct {
	scenes []simimg.SceneID
	clean  []*simimg.Image
	photos []*simimg.Photo
}

func newCorpus(nScenes int) *corpus {
	c := &corpus{scenes: make([]simimg.SceneID, nScenes), clean: make([]*simimg.Image, nScenes)}
	parallelFor(nScenes, func(i int) {
		c.scenes[i] = sceneBase + simimg.SceneID(i)
		c.clean[i] = simimg.NewScene(c.scenes[i]).Render(resolution, resolution)
	})
	return c
}

// generate appends n photos with ids idBase, idBase+1, ... Parameters are
// drawn sequentially from rng and rasters rendered in parallel, so the
// result depends only on the rng state.
func (c *corpus) generate(rng *rand.Rand, idBase uint64, n int) []*simimg.Photo {
	type job struct {
		scene int
		sev   float64
		seed  int64
	}
	jobs := make([]job, n)
	for i := range jobs {
		jobs[i] = job{scene: rng.Intn(len(c.scenes)), sev: meanSeverity * (0.5 + rng.Float64()), seed: rng.Int63()}
	}
	out := make([]*simimg.Photo, n)
	parallelFor(n, func(i int) {
		j := jobs[i]
		prng := rand.New(rand.NewSource(j.seed))
		img := simimg.RandomPerturbation(prng, j.sev).Apply(c.clean[j.scene], prng)
		out[i] = &simimg.Photo{ID: idBase + uint64(i), Scene: c.scenes[j.scene], Severity: j.sev, Img: img}
	})
	c.photos = append(c.photos, out...)
	return out
}

// base generates the fixed base corpus (ids corpusIDBase...).
func (c *corpus) base() []*simimg.Photo {
	return c.generate(rand.New(rand.NewSource(baseSeed)), corpusIDBase, baseN)
}

// seeded generates n more corpus photos from rng, ids following the base.
func (c *corpus) seeded(rng *rand.Rand, n int) []*simimg.Photo {
	return c.generate(rng, corpusIDBase+uint64(len(c.photos)), n)
}

// buildEngine Builds an engine on the base corpus and batch-inserts the
// seeded rest.
func buildEngine(cfg core.Config, base, rest []*simimg.Photo, workers int) (*core.Engine, error) {
	eng := core.NewEngine(cfg)
	if _, err := eng.Build(base); err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	if _, err := eng.InsertBatch(rest, workers); err != nil {
		return nil, fmt.Errorf("build: inserting the seeded corpus: %w", err)
	}
	return eng, nil
}

// probe is a query input with its scene as ground truth.
type probe struct {
	img   *simimg.Image
	scene simimg.SceneID
}

// loadProbes makes n never-repeated load probes: a mild re-take
// (simimg.RandomPerturbation at probeSeverity, ≈0.13 ms) of a seeded corpus
// photo, whose scene is the ground truth. workload.Queries renders the scene
// afresh per probe (≈2 ms, sequential) and is kept for the small identity
// and recall set only.
func loadProbes(rng *rand.Rand, from []*simimg.Photo, n int) []probe {
	type job struct {
		src  int
		seed int64
	}
	jobs := make([]job, n)
	for i := range jobs {
		jobs[i] = job{src: rng.Intn(len(from)), seed: rng.Int63()}
	}
	out := make([]probe, n)
	parallelFor(n, func(i int) {
		prng := rand.New(rand.NewSource(jobs[i].seed))
		src := from[jobs[i].src]
		out[i] = probe{img: simimg.RandomPerturbation(prng, probeSeverity).Apply(src.Img, prng), scene: src.Scene}
	})
	return out
}

// checkProbes builds the identity-and-recall probe set with
// workload.Queries over the given photos, exactly as the repository's
// experiments do.
func checkProbes(photos []*simimg.Photo, nScenes, n int, seed int64) ([]probe, error) {
	ds := &workload.Dataset{
		Spec: workload.Spec{
			Name: "bench", Scenes: nScenes, Photos: len(photos),
			Resolution: resolution, MeanSeverity: meanSeverity, SceneBase: sceneBase,
		},
		Photos:  photos,
		ByScene: map[simimg.SceneID][]uint64{},
	}
	qs, err := ds.Queries(n, seed)
	if err != nil {
		return nil, err
	}
	out := make([]probe, len(qs))
	for i, q := range qs {
		out[i] = probe{img: q.Probe, scene: q.Scene}
	}
	return out, nil
}

// redrawSummary returns a synthetic near-duplicate of src: each set bit is
// re-drawn to a fresh position with probability frac. Bits stay sorted and
// distinct, as bloom.Sparse requires.
func redrawSummary(rng *rand.Rand, src *bloom.Sparse, frac float64) *bloom.Sparse {
	set := make(map[uint32]struct{}, len(src.Bits))
	for _, b := range src.Bits {
		set[b] = struct{}{}
	}
	for _, b := range src.Bits {
		if rng.Float64() >= frac {
			continue
		}
		for {
			nb := uint32(rng.Intn(int(src.M)))
			if _, taken := set[nb]; !taken {
				delete(set, b)
				set[nb] = struct{}{}
				break
			}
		}
	}
	words := make([]uint64, bloom.PackedWords(src.M))
	for b := range set {
		words[b/64] |= 1 << (b % 64)
	}
	return &bloom.Sparse{M: src.M, K: src.K, Bits: bloom.AppendBits(make([]uint32, 0, len(set)), words)}
}

// fingerprint folds every generated input into one 64-bit value, printed
// with each result: the same seed must give the same fingerprint.
type fingerprint uint64

func (f *fingerprint) word(w uint64) { *f = fingerprint((uint64(*f) ^ w) * 0x100000001b3) }

func (f *fingerprint) image(im *simimg.Image) {
	f.word(uint64(im.W)<<32 | uint64(im.H))
	for _, p := range im.Pix {
		f.word(math.Float64bits(p))
	}
}

func (f *fingerprint) photos(ps []*simimg.Photo) {
	for _, p := range ps {
		f.word(p.ID)
		f.word(uint64(p.Scene))
		f.image(p.Img)
	}
}

func (f *fingerprint) probes(ps []probe) {
	for _, p := range ps {
		f.word(uint64(p.scene))
		f.image(p.img)
	}
}

func (f *fingerprint) summary(s *bloom.Sparse) {
	f.word(uint64(len(s.Bits)))
	for _, b := range s.Bits {
		f.word(uint64(b))
	}
}

func (f fingerprint) String() string { return fmt.Sprintf("%016x", uint64(f)) }

// parallelFor runs fn(0..n-1) across the benchmark's worker count.
func parallelFor(n int, fn func(i int)) {
	workers := loadCallers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				fn(i)
			}
		}(w)
	}
	wg.Wait()
}
