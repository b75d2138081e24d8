package federation

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"enviromic/internal/flash"
)

// Plain `go test -bench` targets for the federated read plane, at the
// benchmark workload's size (24 files) and at the size it was cut down
// from (400), 220 chunks a file on three converged in-process stations.
// They put a number on the side no BENCHMARK.json workload exercises: a
// read that follows a change re-fetches that peer's manifest and
// re-merges, which is still O(archive). manifest-B/op is the peer
// manifest body bytes a read moved.
//
//	go test -run '^$' -bench Federated -benchtime 200x ./internal/federation/

// discard is an http.ResponseWriter that drops the body, so the
// requester's side of the exchange costs the benchmark nothing.
type discard struct{ h http.Header }

func (d discard) Header() http.Header         { return d.h }
func (d discard) Write(p []byte) (int, error) { return len(p), nil }
func (d discard) WriteHeader(int)             {}

// serve runs one federated read on s0 and fails on anything but a whole
// 200.
func serve(b *testing.B, h http.Handler, path string) {
	w := discard{http.Header{}}
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	if w.h.Get(PartialHeader) != "" {
		b.Fatalf("%s: partial answer, missing %s", path, w.h.Get(PartialHeader))
	}
}

func benchSizes(b *testing.B, run func(b *testing.B, cl []*testStation, files int)) {
	for _, files := range []int{24, 400} {
		b.Run(fmt.Sprintf("files=%d", files), func(b *testing.B) {
			cl := newCluster(b, 3, 0)
			replicateEverywhere(b, cl, files, 220)
			run(b, cl, files)
		})
	}
}

// reportManifestBytes starts the timer and returns the function that
// reports the manifest bytes moved per read since.
func reportManifestBytes(b *testing.B, st *Station) func() {
	before := st.cManifestBytes.Value()
	b.ResetTimer()
	return func() {
		b.ReportMetric(float64(st.cManifestBytes.Value()-before)/float64(b.N), "manifest-B/op")
	}
}

func BenchmarkFederatedQuery(b *testing.B) {
	// A one-minute window, as the benchmark's read mix asks for.
	const window = "/query?from=10m&to=11m"
	b.Run("steady", func(b *testing.B) {
		benchSizes(b, func(b *testing.B, cl []*testStation, files int) {
			h := cl[0].st.Handler()
			serve(b, h, window)
			defer reportManifestBytes(b, cl[0].st)()
			for i := 0; i < b.N; i++ {
				serve(b, h, window)
			}
		})
	})
	// Every read follows one new chunk on a peer.
	b.Run("after-ingest", func(b *testing.B) {
		benchSizes(b, func(b *testing.B, cl []*testStation, files int) {
			h := cl[0].st.Handler()
			serve(b, h, window)
			defer reportManifestBytes(b, cl[0].st)()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				at := float64(files+1)*60 + float64(i)
				mustIngest(b, cl[1].store, []*flash.Chunk{mkChunk(flash.FileID(files+1), 9, uint32(i), at, at+1, 4)})
				b.StartTimer()
				serve(b, h, window)
			}
		})
	})
}

func BenchmarkFederatedWav(b *testing.B) {
	b.Run("all-local", func(b *testing.B) {
		benchSizes(b, func(b *testing.B, cl []*testStation, files int) {
			h := cl[0].st.Handler()
			serve(b, h, "/files/1/wav")
			defer reportManifestBytes(b, cl[0].st)()
			for i := 0; i < b.N; i++ {
				serve(b, h, "/files/1/wav")
			}
		})
	})
	// s1 alone holds a longer copy of one chunk of file 2, so every read
	// of it moves that file's payload from s1 — and from no one else.
	b.Run("one-remote", func(b *testing.B) {
		benchSizes(b, func(b *testing.B, cl []*testStation, files int) {
			mustIngest(b, cl[1].store, []*flash.Chunk{mkChunk(2, 1, 0, 120, 120.08, 40)})
			h := cl[0].st.Handler()
			serve(b, h, "/files/2/wav")
			asked := payloadAsked(cl)
			defer reportManifestBytes(b, cl[0].st)()
			for i := 0; i < b.N; i++ {
				serve(b, h, "/files/2/wav")
			}
			b.StopTimer()
			if got := asked(); got != [3]int64{0, int64(b.N), 0} {
				b.Fatalf("%d reads asked (s0, s1, s2) for payload %v times", b.N, got)
			}
		})
	})
}
