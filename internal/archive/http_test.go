package archive

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"testing"

	"enviromic/internal/erasure"
	"enviromic/internal/flash"
	"enviromic/internal/wav"
)

// newTestServer builds a store with two files (file 1 gapped, file 2
// contiguous) behind the HTTP handler.
func newTestServer(t *testing.T) (*Store, *httptest.Server) {
	t.Helper()
	s := openTest(t, t.TempDir(), Options{Shards: 4})
	mustIngest(t, s, []*flash.Chunk{
		mkChunk(1, 3, 0, 0, 1),
		mkChunk(1, 3, 1, 1, 2),
		mkChunk(1, 3, 3, 3, 4), // hole at [2s,3s)
		mkChunk(2, 4, 0, 10, 11),
		mkChunk(2, 5, 1, 11, 12),
	})
	srv := httptest.NewServer(NewHandler(s, nil))
	t.Cleanup(srv.Close)
	t.Cleanup(func() { s.Close() })
	return s, srv
}

func getJSON(t *testing.T, url string, into any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if into != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, into); err != nil {
			t.Fatalf("GET %s: bad JSON %q: %v", url, body, err)
		}
	}
	return resp
}

func TestHTTPFilesAndFile(t *testing.T) {
	_, srv := newTestServer(t)

	var files []FileInfoJSON
	if resp := getJSON(t, srv.URL+"/files", &files); resp.StatusCode != 200 {
		t.Fatalf("/files status %d", resp.StatusCode)
	}
	if len(files) != 2 || files[0].ID != 1 || files[1].ID != 2 {
		t.Fatalf("/files = %+v", files)
	}
	if files[0].Gaps != 1 || files[1].Gaps != 0 {
		t.Fatalf("gap counts = %d,%d", files[0].Gaps, files[1].Gaps)
	}

	var one struct {
		FileInfoJSON
		DurationSec float64 `json:"duration_s"`
		ChunkList   []struct {
			Origin int32  `json:"origin"`
			Seq    uint32 `json:"seq"`
		} `json:"chunk_list"`
	}
	if resp := getJSON(t, srv.URL+"/files/2", &one); resp.StatusCode != 200 {
		t.Fatalf("/files/2 status %d", resp.StatusCode)
	}
	if len(one.ChunkList) != 2 || one.ChunkList[0].Origin != 4 || one.ChunkList[1].Origin != 5 {
		t.Fatalf("/files/2 chunks = %+v", one.ChunkList)
	}

	if resp := getJSON(t, srv.URL+"/files/99", nil); resp.StatusCode != 404 {
		t.Fatalf("/files/99 status %d, want 404", resp.StatusCode)
	}
	if resp := getJSON(t, srv.URL+"/files/bogus", nil); resp.StatusCode != 400 {
		t.Fatalf("/files/bogus status %d, want 400", resp.StatusCode)
	}
}

func TestHTTPGapsAndTolerance(t *testing.T) {
	_, srv := newTestServer(t)
	var out struct {
		File         flash.FileID   `json:"file"`
		Gaps         []gapJSON      `json:"gaps"`
		RequeryFiles []flash.FileID `json:"requery_files"`
	}
	getJSON(t, srv.URL+"/files/1/gaps", &out)
	if len(out.Gaps) != 1 || out.Gaps[0].StartSec != 2 || out.Gaps[0].EndSec != 3 {
		t.Fatalf("gaps = %+v", out.Gaps)
	}
	if len(out.RequeryFiles) != 2 || out.RequeryFiles[0] != 1 ||
		out.RequeryFiles[1] != 1|erasure.ParityFileBit {
		t.Fatalf("requery = %v, want file 1 plus its parity sibling", out.RequeryFiles)
	}
	// A tolerance wider than the hole reports no gaps.
	getJSON(t, srv.URL+"/files/1/gaps?tolerance=2s", &out)
	if len(out.Gaps) != 0 || len(out.RequeryFiles) != 0 {
		t.Fatalf("wide tolerance gaps = %+v requery = %v", out.Gaps, out.RequeryFiles)
	}
	if resp := getJSON(t, srv.URL+"/files/1/gaps?tolerance=nope", nil); resp.StatusCode != 400 {
		t.Fatalf("bad tolerance status %d", resp.StatusCode)
	}
}

func TestHTTPWav(t *testing.T) {
	_, srv := newTestServer(t)
	resp, err := http.Get(srv.URL + "/files/1/wav")
	if err != nil {
		t.Fatalf("GET wav: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("wav status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "audio/wav" {
		t.Fatalf("Content-Type = %q", ct)
	}
	samples, rate, err := wav.Read(resp.Body)
	if err != nil {
		t.Fatalf("decoding wav: %v", err)
	}
	if rate != 2730 {
		t.Fatalf("rate = %d", rate)
	}
	// File 1 spans 4s; at 2730 Hz that is ~10920 samples.
	if len(samples) < 10000 || len(samples) > 12000 {
		t.Fatalf("samples = %d, want ~10920", len(samples))
	}
}

// cutWriter fails the response's second write — the WAV samples, after the
// header — and takes whatever else the handler has to say.
type cutWriter struct {
	httptest.ResponseRecorder
	writes int
}

func (w *cutWriter) Write(p []byte) (int, error) {
	if w.writes++; w.writes == 2 {
		return 0, errors.New("connection reset")
	}
	return w.ResponseRecorder.Write(p)
}

// TestHTTPWavCutShortAppendsNothing: once the WAV header is out, a failed
// write must not put a JSON error into the audio body.
func TestHTTPWavCutShortAppendsNothing(t *testing.T) {
	s, _ := newTestServer(t)
	w := &cutWriter{ResponseRecorder: *httptest.NewRecorder()}
	req := httptest.NewRequest(http.MethodGet, "/files/1/wav", nil)
	NewHandler(s, nil).ServeHTTP(w, req)
	if w.Code != http.StatusOK || w.Header().Get("Content-Type") != "audio/wav" || w.Body.Len() != 44 || w.writes != 2 {
		t.Fatalf("HTTP %d %q, %d body bytes after %d writes; want the 44-byte WAV header and nothing else",
			w.Code, w.Header().Get("Content-Type"), w.Body.Len(), w.writes)
	}
}

func TestHTTPQuery(t *testing.T) {
	_, srv := newTestServer(t)
	var files []FileInfoJSON
	getJSON(t, srv.URL+"/query?from=9s&to=30s", &files)
	if len(files) != 1 || files[0].ID != 2 {
		t.Fatalf("time query = %+v", files)
	}
	getJSON(t, srv.URL+"/query?origins=3", &files)
	if len(files) != 1 || files[0].ID != 1 {
		t.Fatalf("origin query = %+v", files)
	}
	getJSON(t, srv.URL+"/query?from=0.5&to=1.5&origins=3,4", &files)
	if len(files) != 1 || files[0].ID != 1 {
		t.Fatalf("combined query = %+v", files)
	}
	getJSON(t, srv.URL+"/query", &files)
	if len(files) != 2 {
		t.Fatalf("unbounded query = %+v", files)
	}
	if resp := getJSON(t, srv.URL+"/query?from=xyz", nil); resp.StatusCode != 400 {
		t.Fatalf("bad from status %d", resp.StatusCode)
	}
	if resp := getJSON(t, srv.URL+"/query?origins=a", nil); resp.StatusCode != 400 {
		t.Fatalf("bad origins status %d", resp.StatusCode)
	}
}

func TestHTTPIngest(t *testing.T) {
	s, srv := newTestServer(t)

	// Ship the missing chunk (fills file 1's hole) plus one duplicate.
	frames, err := EncodeFrames([]*flash.Chunk{
		mkChunk(1, 3, 2, 2, 3),
		mkChunk(1, 3, 0, 0, 1), // dup
	})
	if err != nil {
		t.Fatalf("EncodeFrames: %v", err)
	}
	resp, err := http.Post(srv.URL+"/ingest", "application/octet-stream", bytes.NewReader(frames))
	if err != nil {
		t.Fatalf("POST /ingest: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("ingest status %d: %s", resp.StatusCode, body)
	}
	var rep struct {
		Added      int `json:"added"`
		Duplicates int `json:"duplicates"`
		Files      []struct {
			File       flash.FileID `json:"file"`
			GapsBefore int          `json:"gaps_before"`
			GapsAfter  int          `json:"gaps_after"`
		} `json:"files"`
		Requery []flash.FileID `json:"requery_files"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatalf("report: %v", err)
	}
	if rep.Added != 1 || rep.Duplicates != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if len(rep.Files) != 1 || rep.Files[0].GapsBefore != 1 || rep.Files[0].GapsAfter != 0 {
		t.Fatalf("deltas = %+v", rep.Files)
	}
	if len(rep.Requery) != 0 {
		t.Fatalf("requery = %v, want empty (gap filled)", rep.Requery)
	}
	if fi, _ := s.Info(1); fi.Chunks != 4 || fi.Gaps != 0 {
		t.Fatalf("file 1 after HTTP ingest: %+v", fi)
	}

	// A torn stream is rejected.
	resp2, err := http.Post(srv.URL+"/ingest", "application/octet-stream", bytes.NewReader(frames[:len(frames)-3]))
	if err != nil {
		t.Fatalf("POST torn: %v", err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != 400 {
		t.Fatalf("torn ingest status %d, want 400", resp2.StatusCode)
	}
}

// TestHTTPIngestRefusesWholeBody: one bad frame in the middle of a body,
// or a body over the bound, and nothing of it reaches the store — not the
// good frames before the bad one, not a byte on disk, not a counter a
// reader could see, not the manifest tag a federation peer revalidates.
func TestHTTPIngestRefusesWholeBody(t *testing.T) {
	s, srv := newTestServer(t)
	var fresh []*flash.Chunk
	for i := 0; i < 8; i++ { // every shard gets a frame
		fresh = append(fresh, mkChunk(flash.FileID(10+i), 7, uint32(i), float64(i), float64(i+1)))
	}
	good, err := EncodeFrames(fresh)
	if err != nil {
		t.Fatal(err)
	}
	frameLen := len(good) / len(fresh)
	badCRC := bytes.Clone(good)
	badCRC[3*frameLen+frameHeaderSize+flash.MinRecordSize] ^= 1
	badLen := bytes.Clone(good)
	badLen[3*frameLen+3]++ // the frame claims one byte more than its record fills

	diskSizes := func() (sizes []int64) {
		for i := range s.shards {
			st, err := os.Stat(s.shardPath(i))
			if err != nil {
				t.Fatal(err)
			}
			sizes = append(sizes, st.Size())
		}
		return sizes
	}
	stats, sizes, tag := s.Stats(), diskSizes(), s.ManifestTag()
	unchanged := func(what string) {
		t.Helper()
		if got := s.Stats(); !reflect.DeepEqual(got, stats) {
			t.Errorf("%s: stats moved:\n%+v\n%+v", what, stats, got)
		}
		if got := diskSizes(); !reflect.DeepEqual(got, sizes) {
			t.Errorf("%s: segment sizes %v, were %v", what, got, sizes)
		}
		if got := s.ManifestTag(); got != tag {
			t.Errorf("%s: manifest tag %s, was %s", what, got, tag)
		}
	}
	wantError := func(what string, resp *http.Response, code int) {
		t.Helper()
		var msg struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&msg); resp.StatusCode != code || err != nil || msg.Error == "" {
			t.Errorf("%s: HTTP %d %q (%v), want %d with a JSON error", what, resp.StatusCode, msg.Error, err, code)
		}
		resp.Body.Close()
	}

	for what, body := range map[string][]byte{"bad CRC": badCRC, "bad length": badLen, "torn": good[:5*frameLen+1]} {
		resp, err := http.Post(srv.URL+"/ingest", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		wantError(what, resp, http.StatusBadRequest)
		unchanged(what)
		if _, err := s.IngestFrames(body); !errors.Is(err, ErrBadFrames) {
			t.Errorf("%s: IngestFrames error %v, want ErrBadFrames", what, err)
		}
		unchanged(what + " in process")
	}

	// Over the bound, declared and undeclared (chunked), against a handler
	// whose bound a test can afford to exceed.
	h := &handler{store: s, maxIngest: int64(len(good)) - 1}
	for _, declared := range []bool{true, false} {
		req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(good))
		if !declared {
			req.ContentLength = -1
		}
		rec := httptest.NewRecorder()
		h.ingest(rec, req)
		wantError(fmt.Sprintf("too long, declared=%v", declared), rec.Result(), http.StatusRequestEntityTooLarge)
		unchanged("too long")
	}
	if got := s.Metrics().Counter("enviromic_archive_ingest_rejected_total", "").Value(); got != 8 {
		t.Errorf("rejected counter = %d, want 8", got)
	}

	// The same body, whole, goes in.
	bodyBytes := s.Metrics().Counter("enviromic_archive_ingest_body_bytes_total", "")
	before := bodyBytes.Value()
	resp, err := http.Post(srv.URL+"/ingest", "application/octet-stream", bytes.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if st := s.Stats(); resp.StatusCode != http.StatusOK || st.Chunks != stats.Chunks+len(fresh) {
		t.Fatalf("good body: HTTP %d, %d chunks, want %d", resp.StatusCode, st.Chunks, stats.Chunks+len(fresh))
	}
	if got := bodyBytes.Value() - before; got != int64(len(good)) {
		t.Errorf("body bytes counter moved by %d, want %d", got, len(good))
	}
}

func TestHTTPStats(t *testing.T) {
	_, srv := newTestServer(t)
	var st Stats
	getJSON(t, srv.URL+"/stats", &st)
	if st.Files != 2 || st.Chunks != 5 || st.Shards != 4 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Counters["ingest.chunks"] != 5 {
		t.Fatalf("counters = %v", st.Counters)
	}
}

func TestEncodeDecodeFramesRoundTrip(t *testing.T) {
	var chunks []*flash.Chunk
	for i := 0; i < 20; i++ {
		c := mkChunk(flash.FileID(i%3+1), int32(i%5), uint32(i), float64(i), float64(i)+0.5)
		c.Data = bytes.Repeat([]byte{byte(i)}, i*7%flash.PayloadSize)
		chunks = append(chunks, c)
	}
	frames, err := EncodeFrames(chunks)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeFrames(frames)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(chunks) {
		t.Fatalf("decoded %d chunks, want %d", len(got), len(chunks))
	}
	for i := range got {
		if got[i].File != chunks[i].File || got[i].Seq != chunks[i].Seq ||
			got[i].Start != chunks[i].Start || !bytes.Equal(got[i].Data, chunks[i].Data) {
			t.Fatalf("chunk %d mismatch: %+v vs %+v", i, got[i], chunks[i])
		}
	}
	// Corrupt one payload byte: decode must fail loudly.
	bad := bytes.Clone(frames)
	bad[frameHeaderSize+10] ^= 1
	if _, err := DecodeFrames(bad); err == nil {
		t.Fatalf("corrupt frame stream decoded without error")
	}
}

func TestHTTPMethodNotAllowed(t *testing.T) {
	_, srv := newTestServer(t)
	resp, err := http.Post(srv.URL+"/files", "text/plain", bytes.NewReader(nil))
	if err != nil {
		t.Fatalf("POST /files: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /files status %d, want 405", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/ingest")
	if err != nil {
		t.Fatalf("GET /ingest: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /ingest status %d, want 405", resp.StatusCode)
	}
}

// TestHTTPReplManifestConditional drives /repl/manifest the way a
// federation coordinator does: fetch once, then revalidate with the tag.
func TestHTTPReplManifestConditional(t *testing.T) {
	s, srv := newTestServer(t)
	fetch := func(etag string) (*http.Response, []byte) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, srv.URL+"/repl/manifest", nil)
		if etag != "" {
			req.Header.Set("If-None-Match", etag)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("GET /repl/manifest: %v", err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp, body
	}

	resp, body := fetch("")
	etag := resp.Header.Get("ETag")
	if resp.StatusCode != http.StatusOK || etag != `"`+s.ManifestTag()+`"` {
		t.Fatalf("first fetch: HTTP %d, ETag %q, store tag %q", resp.StatusCode, etag, s.ManifestTag())
	}
	rows, err := DecodeManifest(body)
	want, _ := s.Manifest()
	if err != nil || !reflect.DeepEqual(rows, want) {
		t.Fatalf("body does not decode to the store's manifest: %v", err)
	}

	if resp, body := fetch(etag); resp.StatusCode != http.StatusNotModified || len(body) != 0 || resp.Header.Get("ETag") != etag {
		t.Fatalf("revalidation: HTTP %d, %d body bytes, ETag %q", resp.StatusCode, len(body), resp.Header.Get("ETag"))
	}

	mustIngest(t, s, []*flash.Chunk{mkChunk(9, 9, 0, 20, 21)})
	resp, body = fetch(etag)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") == etag {
		t.Fatalf("after ingest: HTTP %d, ETag %q (old %q)", resp.StatusCode, resp.Header.Get("ETag"), etag)
	}
	if rows, err := DecodeManifest(body); err != nil || len(rows) != len(want)+1 {
		t.Fatalf("after ingest: %d files, %v; want %d", len(rows), err, len(want)+1)
	}
}
