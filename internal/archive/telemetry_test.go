package archive

import (
	"net/http/httptest"
	"strings"
	"testing"

	"enviromic/internal/flash"
	"enviromic/internal/telemetry"
)

// TestTelemetryMirrorsLegacyCounters pins the counter port: every legacy
// dotted name in Stats().Counters is backed by a registry series with the
// same value, and the registry's exposition is valid and carries the
// archive families (including the cache-hit-ratio gauge that replaced the
// expvar shim's formatted string).
func TestTelemetryMirrorsLegacyCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := openTest(t, t.TempDir(), Options{Shards: 2, Telemetry: reg})
	defer s.Close()

	if s.Metrics() != reg {
		t.Fatalf("Metrics() did not return the injected registry")
	}

	mustIngest(t, s, []*flash.Chunk{
		mkChunk(1, 3, 0, 0, 1),
		mkChunk(1, 3, 1, 1, 2),
		mkChunk(2, 4, 0, 10, 11),
	})
	if _, err := s.File(1); err != nil { // miss
		t.Fatal(err)
	}
	if _, err := s.File(1); err != nil { // hit
		t.Fatal(err)
	}
	s.Query(0, 0, nil)

	// Legacy view and Prometheus view must agree series by series.
	want := map[string]string{
		"ingest.batches":    "enviromic_archive_ingest_batches_total",
		"ingest.chunks":     "enviromic_archive_ingest_chunks_total",
		"ingest.groups":     "enviromic_archive_group_commits_total",
		"query.count":       "enviromic_archive_queries_total",
		"cache.hits":        "enviromic_archive_cache_hits_total",
		"cache.misses":      "enviromic_archive_cache_misses_total",
		"file.reassemblies": "enviromic_archive_reassemblies_total",
	}
	counters := s.Stats().Counters
	for legacy, prom := range want {
		if got := reg.Counter(prom, "").Value(); got != counters[legacy] {
			t.Errorf("%s = %d, but %s = %d", prom, got, legacy, counters[legacy])
		}
	}
	if counters["ingest.chunks"] != 3 || counters["cache.hits"] != 1 || counters["cache.misses"] != 1 {
		t.Fatalf("unexpected counter values: %v", counters)
	}

	// The group-commit batch-size histogram saw the ingest.
	if got := reg.Histogram("enviromic_archive_group_commit_batch_size", "",
		telemetry.ExpBuckets(1, 2, 7)).Count(); got == 0 {
		t.Errorf("batch-size histogram recorded nothing")
	}

	// Exposition: parses, and carries totals plus the hit-ratio gauge.
	rec := httptest.NewRecorder()
	telemetry.Handler(reg).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	text := rec.Body.String()
	samples, err := telemetry.ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	byName := map[string]float64{}
	for _, smp := range samples {
		byName[smp.Name] = smp.Value
	}
	if byName["enviromic_archive_files"] != 2 || byName["enviromic_archive_chunks"] != 3 {
		t.Errorf("store-size gauges wrong: files=%v chunks=%v",
			byName["enviromic_archive_files"], byName["enviromic_archive_chunks"])
	}
	if byName["enviromic_archive_cache_hit_ratio"] != 0.5 {
		t.Errorf("cache hit ratio = %v, want 0.5 after one hit one miss",
			byName["enviromic_archive_cache_hit_ratio"])
	}
}

// TestEndpointOf pins the route-pattern mapping the HTTP middleware uses.
func TestEndpointOf(t *testing.T) {
	cases := map[string]string{
		"/files":           "/files",
		"/files/12":        "/files/{id}",
		"/files/12/gaps":   "/files/{id}/gaps",
		"/files/12/wav":    "/files/{id}/wav",
		"/query":           "/query",
		"/ingest":          "/ingest",
		"/stats":           "/stats",
		"/metrics":         "/metrics",
		"/federation":      "/federation",
		"/debug/pprof/":    "other",
		"/files2/whatever": "other",
	}
	for path, wantEP := range cases {
		r := httptest.NewRequest("GET", path, nil)
		if got := EndpointOf(r); got != wantEP {
			t.Errorf("EndpointOf(%s) = %q, want %q", path, got, wantEP)
		}
	}
}
