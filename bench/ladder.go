package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"github.com/fastrepro/fast/internal/bloom"
	"github.com/fastrepro/fast/internal/chunk"
	"github.com/fastrepro/fast/internal/core"
	"github.com/fastrepro/fast/internal/cuckoo"
	"github.com/fastrepro/fast/internal/feature"
	"github.com/fastrepro/fast/internal/imgproc"
	"github.com/fastrepro/fast/internal/lsh"
	"github.com/fastrepro/fast/internal/placement"
	"github.com/fastrepro/fast/internal/router"
	"github.com/fastrepro/fast/internal/server"
	"github.com/fastrepro/fast/internal/simimg"
)

// The layer ladder: after a traced run, a fixed sample of probes is
// replayed single-threaded through every layer of a query, bottom up —
// pyramid → detect → describe → summarize → LSH query → cuckoo lookup →
// packed scoring → cold bucket scan → encode/decode → merge — by calling
// each layer's public functions directly. It fills the per-layer metrics
// every workload reports, on that workload's own corpus.

const (
	ladderProbes  = 120
	ladderEntries = 4000 // cap on entries loaded into the standalone LSH/cuckoo structures
	ladderWrites  = 40
)

type ladderInput struct {
	eng    *core.Engine // quiesced; the ladder mutates it (inserts, deletes, churn)
	cfg    core.Config  // the config eng was built with
	probes []probe      // image probes; the first ladderProbes are replayed
	fresh  *corpus      // source of never-seen photos for the write steps
	rng    *rand.Rand
}

// timeUS runs fn and returns its duration in microseconds.
func timeUS(fn func()) float64 {
	t0 := time.Now()
	fn()
	return float64(time.Since(t0)) / 1e3
}

func (r *run) addLayer(name string, durs []float64, self float64) {
	r.layers = append(r.layers, layerRow{Name: name, Count: len(durs), P50us: median(durs), Selfus: self})
}

func (r *run) ladder(in ladderInput) error {
	n := ladderProbes
	if n > len(in.probes) {
		n = len(in.probes)
	}
	sample := in.probes[:n]
	eng := in.eng

	// The engine's trained basis is private; train one the same way (a
	// strided sample of the corpus) for the direct FE calls.
	var training []*simimg.Image
	for i := 0; i < len(in.fresh.photos) && len(training) < 32; i += 1 + len(in.fresh.photos)/32 {
		training = append(training, in.fresh.photos[i].Img)
	}
	pca, err := feature.TrainPCASIFT(training, in.cfg.Detect, in.cfg.PCADim)
	if err != nil {
		return fmt.Errorf("ladder: %w", err)
	}

	// --- FE + SM ---
	var pyr, det, descAll, descKP, summ []float64
	var kpTotal, bitTotal int
	sparses := make([]*bloom.Sparse, 0, n)
	for _, p := range sample {
		pyr = append(pyr, timeUS(func() {
			if py, err := imgproc.BuildPyramid(p.img, in.cfg.Detect.Pyramid); err == nil {
				py.Release()
			}
		}))
		var kps []feature.Keypoint
		det = append(det, timeUS(func() { kps, _ = feature.DetectKeypoints(p.img, in.cfg.Detect) }))
		kpTotal += len(kps)
		t0 := time.Now()
		_, descs, _ := pca.DescribeAll(p.img, in.cfg.Detect)
		descAll = append(descAll, float64(time.Since(t0))/1e3)
		for i := 0; i < len(kps) && i < 8; i++ {
			kp := kps[i]
			descKP = append(descKP, timeUS(func() { _, _ = pca.Describe(p.img, kp) }))
		}
		t0 = time.Now()
		f, _ := bloom.Summarize(descs, in.cfg.Summary)
		summ = append(summ, float64(time.Since(t0))/1e3)
		if f != nil {
			bitTotal += f.PopCount()
		}
	}
	r.set("imgproc.pyramid_us", median(pyr))
	r.set("feature.detect_us", median(det))
	r.set("feature.describe_all_us", median(descAll))
	r.set("feature.describe_kp_us", median(descKP))
	r.set("feature.keypoints_per_image", float64(kpTotal)/float64(n))
	r.set("bloom.summarize_us", median(summ))
	r.set("bloom.bits_per_summary", float64(bitTotal)/float64(n))
	r.addLayer("imgproc.pyramid", pyr, median(pyr))
	r.addLayer("feature.detect", det, median(det)-median(pyr))
	r.addLayer("feature.describe_all", descAll, median(descAll)-median(det))
	r.addLayer("feature.describe_kp", descKP, median(descKP))
	r.addLayer("bloom.summarize", summ, median(summ))

	// --- core: Query against its byte-identical split ---
	// Whole and split run on the same probe back to back, in alternating
	// order, so neither side always finds the caches warm.
	var q, su, se, self []float64
	simBefore, coldBefore := eng.SimCost(), eng.ColdStats()
	answers := make([][]core.SearchResult, 0, n)
	for i, p := range sample {
		var res []core.SearchResult
		var f *bloom.Filter
		var qerr, serr error
		whole := func() { q = append(q, timeUS(func() { res, qerr = eng.Query(p.img, topK) })) }
		split := func() {
			su = append(su, timeUS(func() { f, serr = eng.Summarize(p.img) }))
			if serr != nil {
				return
			}
			ps := bloom.ToSparse(f)
			sparses = append(sparses, ps)
			se = append(se, timeUS(func() { _, serr = eng.QuerySummary(ps, topK, 1) }))
		}
		if i%2 == 0 {
			whole()
			split()
		} else {
			split()
			whole()
		}
		if qerr != nil || serr != nil {
			return fmt.Errorf("ladder: query %v, split %v", qerr, serr)
		}
		answers = append(answers, res)
		self = append(self, q[i]-su[i]-se[i])
	}
	simAfter, coldAfter := eng.SimCost(), eng.ColdStats()
	mq, msu, mse := median(q), median(su), median(se)
	r.set("core.query_us", mq)
	r.set("core.summarize_us", msu)
	r.set("core.search_us", mse)
	r.set("core.query_self_us", median(self))
	// Each probe was searched twice: once whole, once split.
	r.set("core.sim_accesses_per_query", float64(simAfter.Accesses-simBefore.Accesses)/float64(2*n))
	r.addLayer("core.query", q, median(self))
	r.addLayer("core.summarize", su, msu)
	r.addLayer("core.search", se, mse)
	// The ladder's self times, summed, against the whole query.
	if mq > 0 {
		r.set("trace.ladder_sum_ratio", (median(descAll)+median(summ)+mse)/mq)
	} else {
		r.set("trace.ladder_sum_ratio", 0)
	}
	r.set("tiered.spill_probes_per_query", float64(coldAfter.SpillProbes-coldBefore.SpillProbes)/float64(2*n))
	r.set("tiered.postings_scanned_per_query", float64(coldAfter.PostingsScanned-coldBefore.PostingsScanned)/float64(2*n))
	r.set("tiered.bytes_scanned_per_query", float64(coldAfter.BytesScanned-coldBefore.BytesScanned)/float64(2*n))
	r.set("tiered.segments", float64(coldAfter.Segments))
	if coldAfter.Entries > 0 {
		r.set("tiered.disk_bytes_per_entry", float64(coldAfter.DiskBytes)/float64(coldAfter.Entries))
	} else {
		r.set("tiered.disk_bytes_per_entry", 0)
	}

	// --- SA, CHS, scoring on standalone structures loaded from the engine ---
	ids := eng.IDs()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var stored []*bloom.Sparse
	var storedIDs []uint64
	for _, id := range ids {
		if s, ok := eng.SummaryOf(id); ok && len(s.Bits) > 0 {
			stored = append(stored, s)
			storedIDs = append(storedIDs, id)
			if len(stored) == ladderEntries {
				break
			}
		}
	}
	if len(stored) == 0 {
		return fmt.Errorf("ladder: engine has no RAM-resident summaries")
	}
	mh, err := lsh.NewMinHash(in.cfg.LSH)
	if err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	ins := timeUS(func() {
		for i, s := range stored {
			_ = mh.Insert(lsh.ItemID(storedIDs[i]), s.Bits) // non-empty sets cannot fail
		}
	})
	r.set("lsh.insert_us", ins/float64(len(stored)))
	var lq []float64
	cands := 0
	for _, ps := range sparses {
		if len(ps.Bits) == 0 {
			continue
		}
		lq = append(lq, timeUS(func() {
			c, _ := mh.Query(ps.Bits)
			cands += len(c)
		}))
	}
	r.set("lsh.query_us", median(lq))
	r.set("lsh.candidates_per_query", float64(cands)/float64(max(len(lq), 1)))
	r.set("lsh.max_bucket", float64(mh.Stats().MaxLen))
	r.addLayer("lsh.query", lq, median(lq))

	nu := in.cfg.Neighborhood
	if nu == 0 {
		nu = cuckoo.DefaultNeighborhood
	}
	flat, err := cuckoo.NewFlat(2*len(storedIDs), nu, 0, 12345)
	if err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	insNS := timeUS(func() {
		for i, id := range storedIDs {
			_ = flat.Insert(id, uint64(i)) // a 2× table at this load does not overflow
		}
	}) * 1e3
	found := 0
	lookNS := timeUS(func() {
		for _, id := range storedIDs {
			if _, ok := flat.Lookup(id); ok {
				found++
			}
		}
	}) * 1e3
	if found != len(storedIDs) {
		return fmt.Errorf("ladder: cuckoo lost %d of %d keys", len(storedIDs)-found, len(storedIDs))
	}
	cst := flat.Stats()
	r.set("cuckoo.insert_ns", insNS/float64(len(storedIDs)))
	r.set("cuckoo.lookup_ns", lookNS/float64(len(storedIDs)))
	r.set("cuckoo.kicks_per_insert", float64(cst.Kicks)/float64(max(cst.Inserts, 1)))
	r.set("cuckoo.load_factor", flat.LoadFactor())

	packed := make([][]uint64, len(stored))
	for i, s := range stored {
		packed[i] = s.Packed()
	}
	var sink float64
	pairs := 0
	jacNS := timeUS(func() {
		for _, ps := range sparses {
			pw := ps.Packed()
			for _, w := range packed {
				sink += bloom.JaccardPacked(pw, w)
			}
			pairs += len(packed)
		}
	}) * 1e3
	if sink < 0 {
		return fmt.Errorf("ladder: negative similarity")
	}
	r.set("bloom.jaccard_packed_ns", jacNS/float64(max(pairs, 1)))

	// --- wire and merge ---
	var enc, dec, mrg []float64
	reqBytes := 0
	for i, p := range sample {
		var wi server.WireImage
		enc = append(enc, timeUS(func() {
			wi, _ = server.EncodeImage(p.img)
			if raw, err := json.Marshal(server.QueryRequest{Image: wi, TopK: topK}); err == nil {
				reqBytes = len(raw)
			}
		}))
		dec = append(dec, timeUS(func() { _, _ = server.DecodeImage(wi) }))
		var a, b []core.SearchResult
		for j, res := range answers[i] {
			if j%2 == 0 {
				a = append(a, res)
			} else {
				b = append(b, res)
			}
		}
		mrg = append(mrg, timeUS(func() { router.MergeTopK([][]core.SearchResult{a, b}, topK) }))
	}
	r.set("server.encode_image_us", median(enc))
	r.set("server.decode_image_us", median(dec))
	r.set("server.request_bytes", float64(reqBytes))
	r.set("router.merge_us", median(mrg))
	r.addLayer("server.encode_image", enc, median(enc))
	r.addLayer("server.decode_image", dec, median(dec))
	r.addLayer("router.merge", mrg, median(mrg))
	ring, err := placement.New(placement.Config{Shards: 3, VNodes: placement.DefaultVNodes, Seed: uint64(r.seed), Epoch: 1})
	if err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	owners := 0
	ownNS := timeUS(func() {
		for _, id := range storedIDs {
			owners += len(ring.Owners(id, 2))
		}
	}) * 1e3
	r.set("placement.owners_ns", ownNS/float64(len(storedIDs)))

	// --- write path: Insert, InsertSummary, Delete ---
	const ladderIDBase = uint64(4_000_000)
	fresh := in.fresh.generate(in.rng, ladderIDBase, ladderWrites)
	var insert, insertSum, del []float64
	for _, p := range fresh {
		var err error
		insert = append(insert, timeUS(func() { err = eng.Insert(p) }))
		if err != nil {
			return fmt.Errorf("ladder: insert: %w", err)
		}
	}
	for i, p := range fresh {
		s, ok := eng.SummaryOf(p.ID)
		if !ok {
			return fmt.Errorf("ladder: inserted photo %d has no summary", p.ID)
		}
		syn := redrawSummary(in.rng, s, 0.15)
		id := ladderIDBase + 100_000 + uint64(i)
		var err error
		insertSum = append(insertSum, timeUS(func() { err = eng.InsertSummary(id, syn) }))
		if err != nil {
			return fmt.Errorf("ladder: insert summary: %w", err)
		}
		for _, victim := range []uint64{p.ID, id} {
			del = append(del, timeUS(func() { err = eng.Delete(victim) }))
			if err != nil {
				return fmt.Errorf("ladder: delete: %w", err)
			}
		}
	}
	r.set("core.insert_us", median(insert))
	r.set("core.insert_summary_us", median(insertSum))
	r.set("core.delete_us", median(del))
	r.addLayer("core.insert", insert, median(insert)-msu)
	r.addLayer("core.insert_summary", insertSum, median(insertSum))
	r.addLayer("core.delete", del, median(del))

	// --- persistence: serialize, chunk, store, recover ---
	var payload bytes.Buffer
	var wt []float64
	for i := 0; i < 5; i++ {
		var err error
		wt = append(wt, timeUS(func() { _, err = eng.WriteTo(io.Discard) })/1e3)
		if err != nil {
			return fmt.Errorf("ladder: WriteTo: %w", err)
		}
	}
	if _, err := eng.WriteTo(&payload); err != nil {
		return fmt.Errorf("ladder: WriteTo: %w", err)
	}
	r.set("core.writeto_ms", median(wt))
	r.set("core.snapshot_bytes", float64(payload.Len()))
	var split []float64
	for i := 0; i < 3; i++ {
		var err error
		us := timeUS(func() { _, err = chunk.Split(chunk.Config{}, payload.Bytes()) })
		if err != nil {
			return fmt.Errorf("ladder: chunk.Split: %w", err)
		}
		split = append(split, float64(payload.Len())/(1<<20)/(us/1e6))
	}
	r.set("chunk.split_mb_per_s", median(split))

	// Quiesced snapshot writes at 1 % churn (capped so the churn itself
	// stays small beside the writes it precedes).
	g := newGenerations(r.tmp, "ladder.fast")
	churnN := eng.Len() / 100
	if churnN < 1 {
		churnN = 1
	}
	if churnN > 20 {
		churnN = 20
	}
	churn := in.fresh.generate(in.rng, ladderIDBase+200_000, snapshotRounds*churnN)
	var snapMS, newBytes []float64
	chunks, reused := 0, 0
	for round := 0; round < snapshotRounds; round++ {
		if _, err := eng.InsertBatch(churn[round*churnN:(round+1)*churnN], r.callers); err != nil {
			return fmt.Errorf("ladder: churn: %w", err)
		}
		t0 := time.Now()
		res, err := g.WriteSnapshot(eng)
		if err != nil {
			return fmt.Errorf("ladder: WriteSnapshot: %w", err)
		}
		if round == 0 {
			continue // the first write stores every chunk
		}
		snapMS = append(snapMS, float64(time.Since(t0))/1e6)
		newBytes = append(newBytes, float64(res.PhysicalBytes))
		chunks += res.Chunks
		reused += res.ChunksReused
	}
	r.set("store.snapshot_write_ms", median(snapMS))
	r.set("store.new_bytes_per_snapshot", median(newBytes))
	r.set("store.chunk_reuse_ratio", float64(reused)/float64(max(chunks, 1)))
	var recovered *core.Engine
	recMS := timeUS(func() {
		_, err = g.Recover(func(_ string, rd io.Reader) error {
			e, err := core.ReadEngine(rd)
			recovered = e
			return err
		})
	}) / 1e3
	if err != nil {
		return fmt.Errorf("ladder: recover: %w", err)
	}
	hot := eng.Len() - eng.ColdStats().Entries
	if recovered == nil || recovered.Len() != hot {
		return fmt.Errorf("ladder: recovered engine does not hold the %d RAM-resident photos", hot)
	}
	r.set("store.recover_ms", recMS)
	return nil
}
