package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
)

// This file is the benchmark's vocabulary: every metric and workload name a
// run can emit, with its unit. BENCHMARK.json at the repository root
// declares the same names (plus direction and regression bound); the schema
// test asserts the two agree, so a result line can never carry a name the
// contract does not know.

// metricDecl names one metric and its unit.
type metricDecl struct {
	Name string
	Unit string
}

// endToEnd lists what a user of the system sees. Every workload reports
// every one of them (see README.md for what each means at each deployment
// depth).
var endToEnd = []metricDecl{
	{"setup_s", "s"},
	{"query_p50_ms", "ms"},
	{"query_p95_ms", "ms"},
	{"query_qps", "1/s"},
	{"slo_ok_ratio", "ratio"},
	{"ingest_photos_per_s", "1/s"},
	{"insert_p50_ms", "ms"},
	{"recall_at_k", "ratio"},
	{"index_bytes_per_photo", "B"},
	{"disk_bytes_per_photo", "B"},
	{"heap_mb", "MB"},
	{"cpu_ms_per_op", "ms"},
}

// perLayer lists the single-layer metrics of the traced run; names are
// <package>.<metric>. A layer that is not on a workload's path reports 0.
var perLayer = []metricDecl{
	{"imgproc.pyramid_us", "us"},
	{"feature.detect_us", "us"},
	{"feature.describe_all_us", "us"},
	{"feature.describe_kp_us", "us"},
	{"feature.keypoints_per_image", "count"},
	{"bloom.summarize_us", "us"},
	{"bloom.bits_per_summary", "count"},
	{"bloom.jaccard_packed_ns", "ns"},
	{"lsh.query_us", "us"},
	{"lsh.insert_us", "us"},
	{"lsh.candidates_per_query", "count"},
	{"lsh.max_bucket", "count"},
	{"cuckoo.lookup_ns", "ns"},
	{"cuckoo.insert_ns", "ns"},
	{"cuckoo.kicks_per_insert", "ratio"},
	{"cuckoo.load_factor", "ratio"},
	{"core.query_us", "us"},
	{"core.summarize_us", "us"},
	{"core.search_us", "us"},
	{"core.query_self_us", "us"},
	{"core.insert_us", "us"},
	{"core.insert_summary_us", "us"},
	{"core.delete_us", "us"},
	{"core.sim_accesses_per_query", "count"},
	{"cache.t1_hit_ratio", "ratio"},
	{"cache.t2_hit_ratio", "ratio"},
	{"cache.singleflight_waits", "count"},
	{"tiered.spill_probes_per_query", "count"},
	{"tiered.postings_scanned_per_query", "count"},
	{"tiered.bytes_scanned_per_query", "B"},
	{"tiered.migrate_entries_per_s", "1/s"},
	{"tiered.segments", "count"},
	{"tiered.disk_bytes_per_entry", "B"},
	{"core.writeto_ms", "ms"},
	{"core.snapshot_bytes", "B"},
	{"store.snapshot_save_ms", "ms"},
	{"store.snapshot_write_ms", "ms"},
	{"store.new_bytes_per_snapshot", "B"},
	{"store.chunk_reuse_ratio", "ratio"},
	{"store.recover_ms", "ms"},
	{"chunk.split_mb_per_s", "MB/s"},
	{"server.handler_us", "us"},
	{"server.queue_wait_us", "us"},
	{"server.batch_mean", "count"},
	{"server.dedup_ratio", "ratio"},
	{"server.rejected_ratio", "ratio"},
	{"server.decode_image_us", "us"},
	{"server.encode_image_us", "us"},
	{"server.request_bytes", "B"},
	{"client.overhead_us", "us"},
	{"router.handler_us", "us"},
	{"router.overhead_us", "us"},
	{"router.slowest_shard_us", "us"},
	{"router.shards_per_query", "count"},
	{"router.merge_us", "us"},
	{"router.hedged_ratio", "ratio"},
	{"router.repair_ratio", "ratio"},
	{"router.partial_ratio", "ratio"},
	{"router.stale_ratio", "ratio"},
	{"placement.owners_ns", "ns"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"query.p99_ms", "ms"},
	{"query.max_ms", "ms"},
	{"loadgen.late_p95_ms", "ms"},
	{"loadgen.segment_spread", "ratio"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.ladder_sum_ratio", "ratio"},
	{"host.kernel_us", "us"},
}

// Layers that only a live server or router has; workloads without one
// report them as absent.
var (
	serverLiveLayers = []string{"server.handler_us", "server.queue_wait_us", "server.batch_mean",
		"server.dedup_ratio", "server.rejected_ratio", "client.overhead_us"}
	routerLiveLayers = []string{"router.handler_us", "router.overhead_us", "router.slowest_shard_us",
		"router.shards_per_query", "router.hedged_ratio", "router.repair_ratio", "router.partial_ratio",
		"router.stale_ratio"}
)

// workloadDecl binds a workload name to the function that runs it.
type workloadDecl struct {
	Name string
	Run  func(*run) error
}

var workloads = []workloadDecl{
	{"fe_ingest_query", runFEIngestQuery},
	{"search_tiered", runSearchTiered},
	{"serve_mixed", runServeMixed},
	{"cluster_rf2", runClusterRF2},
}

func findWorkload(name string) *workloadDecl {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

func unitOf(decls []metricDecl, name string) (string, bool) {
	for _, d := range decls {
		if d.Name == name {
			return d.Unit, true
		}
	}
	return "", false
}

// nameRE is the contract's naming rule for metrics and workloads.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchSpec mirrors BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &s, nil
}

func (s *benchSpec) endToEndMetric(name string) (specMetric, bool) {
	for _, m := range s.EndToEnd {
		if m.Name == name {
			return m, true
		}
	}
	return specMetric{}, false
}
