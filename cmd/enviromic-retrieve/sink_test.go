package main

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"enviromic/internal/archive"
	"enviromic/internal/erasure"
	"enviromic/internal/flash"
	"enviromic/internal/sim"
)

// TestFlushSplitsTourIntoBoundedBodies: a tour longer than one /ingest
// body may be is cut at frame boundaries, and the summed report says what
// one flush of the whole tour into a local archive says — including for
// a file whose gap an early body opens and a later one closes, and one
// whose gap stays.
func TestFlushSplitsTourIntoBoundedBodies(t *testing.T) {
	chunk := func(file flash.FileID, seq uint32, sec int) *flash.Chunk {
		return &flash.Chunk{
			File: file, Origin: 1, Seq: seq,
			Start: sim.At(time.Duration(sec) * time.Second), End: sim.At(time.Duration(sec+1) * time.Second),
			Data: []byte{byte(file), byte(seq)},
		}
	}
	tour := []*flash.Chunk{
		chunk(1, 0, 0), chunk(1, 2, 2), chunk(2, 0, 10), // body 1: file 1 has a hole at [1s,2s)
		chunk(2, 3, 13), chunk(3, 0, 20), chunk(1, 0, 0), // body 2: file 2 has one at [11s,13s); a duplicate
		chunk(1, 1, 1), chunk(3, 1, 21), chunk(2, 1, 11), // body 3: file 1's closes, file 2's narrows
		chunk(4, 0, 30), // body 4
	}

	local, err := openSink(t.TempDir(), 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer local.close()
	want, err := local.flush(0, tour)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Requery, []flash.FileID{2, 2 | erasure.ParityFileBit}) {
		t.Fatalf("the tour should leave file 2 gapped, re-query %v", want.Requery)
	}

	store, err := archive.Open(t.TempDir(), archive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	var posts atomic.Int32
	handler := archive.NewHandler(store, nil)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		posts.Add(1)
		handler.ServeHTTP(w, r)
	}))
	defer srv.Close()
	remote, err := openSink(srv.URL, 0)
	if err != nil {
		t.Fatal(err)
	}
	remote.bodyChunks = 3
	got, err := remote.flush(0, tour)
	if err != nil {
		t.Fatal(err)
	}
	if posts.Load() != 4 {
		t.Errorf("%d bodies posted, want 4", posts.Load())
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("summed report\n%+v, one flush reports\n%+v", got, want)
	}
	if st := store.Stats(); st.Chunks != 9 {
		t.Errorf("station holds %d chunks, want 9", st.Chunks)
	}
}
