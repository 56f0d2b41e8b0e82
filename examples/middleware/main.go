// Middleware: FAST as storage-system middleware. The paper positions FAST
// as "a system middleware that can run on existing systems ... by using the
// general file system interface"; this example exercises that lifecycle:
// build an index, persist it through the file system, restore it in a fresh
// process state, keep serving queries, and apply retention (deletion, with
// the freed slots reclaimed as it goes) — all without re-extracting a single
// feature.
//
//	go run ./examples/middleware
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"github.com/fastrepro/fast/internal/core"
	"github.com/fastrepro/fast/internal/workload"
)

func main() {
	log.SetFlags(0)

	ds, err := workload.Generate(workload.Spec{
		Name:       "middleware",
		Scenes:     6,
		Photos:     180,
		Resolution: 64,
		Seed:       3,
		SceneBase:  4500,
	})
	if err != nil {
		log.Fatalf("generating corpus: %v", err)
	}

	// 1. Build (in parallel) and snapshot to disk.
	engine := core.NewEngine(core.Config{})
	t0 := time.Now()
	if _, err := engine.Build(ds.Photos); err != nil {
		log.Fatalf("building: %v", err)
	}
	buildTime := time.Since(t0)

	path := filepath.Join(os.TempDir(), "fast-middleware.idx")
	f, err := os.Create(path)
	if err != nil {
		log.Fatalf("creating snapshot: %v", err)
	}
	n, err := engine.WriteTo(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		log.Fatalf("writing snapshot: %v", err)
	}
	fmt.Printf("built %d-photo index in %v; snapshot %s (%.1f KB, %.0f B/photo)\n",
		engine.Len(), buildTime.Round(time.Millisecond), path, float64(n)/1024,
		float64(n)/float64(engine.Len()))

	// 2. A "new process" restores the snapshot: no feature re-extraction.
	r, err := os.Open(path)
	if err != nil {
		log.Fatalf("opening snapshot: %v", err)
	}
	t1 := time.Now()
	restored, err := core.ReadEngine(r)
	if cerr := r.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		log.Fatalf("restoring: %v", err)
	}
	fmt.Printf("restored %d photos in %v (%.0fx faster than building)\n",
		restored.Len(), time.Since(t1).Round(time.Microsecond),
		float64(buildTime)/float64(time.Since(t1)))

	// 3. The restored index serves queries immediately.
	qs, err := ds.Queries(3, 9)
	if err != nil {
		log.Fatalf("queries: %v", err)
	}
	for i, q := range qs {
		t2 := time.Now()
		res, err := restored.Query(q.Probe, 15)
		if err != nil {
			log.Fatalf("query: %v", err)
		}
		hits := 0
		for _, r := range res {
			if q.Relevant[r.ID] {
				hits++
			}
		}
		fmt.Printf("query %d: %d results (%d correlated) in %v\n",
			i+1, len(res), hits, time.Since(t2).Round(time.Microsecond))
	}

	// 4. Retention: the oldest 30 photos age out. The engine reclaims the
	//    slots they leave once dead slots outnumber live ones.
	for _, p := range ds.Photos[:30] {
		if err := restored.Delete(p.ID); err != nil {
			log.Fatalf("delete: %v", err)
		}
	}
	fmt.Printf("\nretention removed 30 photos; index now %d photos, %.1f KB resident\n",
		restored.Len(), float64(restored.IndexBytes())/1024)

	if err := os.Remove(path); err != nil {
		log.Fatalf("cleanup: %v", err)
	}
	fmt.Println("snapshot removed; lifecycle complete")
}
