package lsi

import (
	"math/rand"
	"testing"
)

// topicCorpus builds documents clustered around topic centers.
func topicCorpus(rng *rand.Rand, topics, perTopic, dim int) (ids []uint64, vecs [][]float64, topicOf map[uint64]int) {
	centers := make([][]float64, topics)
	for t := range centers {
		c := make([]float64, dim)
		for i := range c {
			c[i] = rng.NormFloat64() * 5
		}
		centers[t] = c
	}
	topicOf = make(map[uint64]int)
	id := uint64(1)
	for t := 0; t < topics; t++ {
		for d := 0; d < perTopic; d++ {
			v := make([]float64, dim)
			for i := range v {
				v[i] = centers[t][i] + rng.NormFloat64()*0.4
			}
			ids = append(ids, id)
			vecs = append(vecs, v)
			topicOf[id] = t
			id++
		}
	}
	return ids, vecs, topicOf
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build([]uint64{1}, [][]float64{{1, 2}, {3, 4}}, 1); err == nil {
		t.Error("id/vector count mismatch should fail")
	}
	if _, err := Build([]uint64{1}, [][]float64{{1, 2}}, 1); err == nil {
		t.Error("single document should fail")
	}
	if _, err := Build([]uint64{1, 2}, [][]float64{{1, 2}, {3, 4}}, 5); err == nil {
		t.Error("k > dim should fail")
	}
}

func TestQueryFindsTopicMates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ids, vecs, topicOf := topicCorpus(rng, 5, 30, 16)
	ix, err := Build(ids, vecs, 5)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if len(ix.ids) != 150 || ix.pca.OutputDim != 5 {
		t.Fatalf("docs/K = %d/%d", len(ix.ids), ix.pca.OutputDim)
	}
	if ex := ix.pca.TotalExplained(); ex < 0.8 {
		t.Errorf("concept space explains only %.2f of variance", ex)
	}
	// Querying with a document's own vector should return topic mates.
	for trial := 0; trial < 10; trial++ {
		qi := rng.Intn(len(ids))
		res, err := ix.Query(vecs[qi], 25)
		if err != nil {
			t.Fatal(err)
		}
		sameTopic := 0
		for _, r := range res {
			if topicOf[r.ID] == topicOf[ids[qi]] {
				sameTopic++
			}
		}
		if sameTopic < 20 {
			t.Errorf("trial %d: only %d/25 hits share the query topic", trial, sameTopic)
		}
		for i := 1; i < len(res); i++ {
			if res[i].Cosine > res[i-1].Cosine {
				t.Fatal("results not sorted by cosine")
			}
		}
	}
}

func TestQueryValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ids, vecs, _ := topicCorpus(rng, 2, 5, 8)
	ix, _ := Build(ids, vecs, 2)
	if _, err := ix.Query(vecs[0], 0); err == nil {
		t.Error("topK 0 should fail")
	}
	if _, err := ix.Query([]float64{1, 2}, 3); err == nil {
		t.Error("dimension mismatch should fail")
	}
}
