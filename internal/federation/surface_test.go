package federation

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"enviromic/internal/archive"
	"enviromic/internal/erasure"
	"enviromic/internal/flash"
	"enviromic/internal/sim"
)

// surfaceHoldings is the seeded archive the read surface is pinned on, as
// three stations would hold it with no replication: file 1 in three
// stripes with a hole at (8s, 10s) that only the merged spans show, file 2
// one chunk in a short, a long and a middling copy, file 3 whole on one
// station, file 6 starting at the same instant as file 3, and file 5 an
// erasure group whose second data chunk exists nowhere and is decoded
// from the first plus the two parity fragments. Ingested into one store
// in station order, the long copy of file 2 supersedes the short.
func surfaceHoldings(t testing.TB) [3][]*flash.Chunk {
	t.Helper()
	var h [3][]*flash.Chunk
	for seq := uint32(0); seq < 5; seq++ {
		h[0] = append(h[0], mkChunk(1, 1, seq, float64(seq), float64(seq+1), 90+int(seq)))
		h[1] = append(h[1], mkChunk(1, 2, seq, float64(seq+3), float64(seq+4), 60+int(seq)))
	}
	h[2] = append(h[2], mkChunk(1, 2, 10, 10, 11, 120), mkChunk(1, 2, 11, 11, 12, 7))

	h[0] = append(h[0], mkChunk(2, 7, 0, 20, 21, 3))
	h[1] = append(h[1], mkChunk(2, 7, 0, 20, 21, 200))
	h[2] = append(h[2], mkChunk(2, 7, 0, 20, 21, 50))

	for seq := uint32(0); seq < 4; seq++ {
		h[2] = append(h[2], mkChunk(3, 3, seq, 30+0.5*float64(seq), 30.5+0.5*float64(seq), 150))
	}
	h[1] = append(h[1], mkChunk(6, 4, 0, 30, 31, 80), mkChunk(6, 1, 1, 31, 32, 80))

	g := erasure.Group{
		File: 5, Origin: 9, FirstSeq: 0, Count: 2,
		Start: sim.Time(40 * time.Second), End: sim.Time(42 * time.Second),
		N: 4, K: 2,
	}
	d0 := mkChunk(5, 9, 0, 40, 41, 100)
	d1 := mkChunk(5, 9, 1, 41, 42, 133)
	code, err := erasure.Cached(g.N, g.K)
	if err != nil {
		t.Fatalf("Cached: %v", err)
	}
	blobs, err := erasure.EncodeParity(code, g, []*flash.Chunk{d0, d1})
	if err != nil {
		t.Fatalf("EncodeParity: %v", err)
	}
	h[0] = append(h[0], d0)
	h[1] = append(h[1], erasure.Carriers(g, g.K, blobs[0])...)
	h[2] = append(h[2], erasure.Carriers(g, g.K+1, blobs[1])...)
	return h
}

// surfaceAnswer is what the table pins of one response.
type surfaceAnswer struct {
	status      int
	ctype, disp string
	sum         string // SHA-256 of the body
}

func (a surfaceAnswer) String() string {
	return fmt.Sprintf("{%d, %q, %q, %q}", a.status, a.ctype, a.disp, a.sum)
}

// surfaceTable is every kind of read request with the answer a single
// station gave on the commit before the federated handlers were folded
// into the archive's.
var surfaceTable = []struct {
	path string
	want surfaceAnswer
}{
	{"/files", surfaceAnswer{200, "application/json", "", "436941b3e6e399577182ede68a3e722f7e0da135507aaf0c619e5c021f013134"}},
	{"/query", surfaceAnswer{200, "application/json", "", "8cf71830b1494a2e2b4728b53e60cd15ee15598ad617efeaf510d4d945429730"}},
	{"/query?from=2s&to=6s", surfaceAnswer{200, "application/json", "", "629630e53079eb858dd78476fbcbaa809a0fa7d6b482ec1e5f8a6a88b467287d"}},
	{"/query?from=8.5&to=9.5", surfaceAnswer{200, "application/json", "", "629630e53079eb858dd78476fbcbaa809a0fa7d6b482ec1e5f8a6a88b467287d"}}, // inside the merged hole
	{"/query?from=25s", surfaceAnswer{200, "application/json", "", "3dbc06f5e1710a07ac9b9ec94e38bcbed956c54ad6cb60c1f0a452b34673479e"}},
	{"/query?to=31s", surfaceAnswer{200, "application/json", "", "b5d1a845db8eb3330a685d4d5ca567b4f837ddaa50abbc023f58676d3a57ba5a"}},
	{"/query?origins=2", surfaceAnswer{200, "application/json", "", "629630e53079eb858dd78476fbcbaa809a0fa7d6b482ec1e5f8a6a88b467287d"}},
	{"/query?origins=1,%204,,", surfaceAnswer{200, "application/json", "", "c163f306326399ab25cad88d789560bb665a5a24d3215dc7169b9cd57864033f"}},
	{"/query?from=20&to=35&origins=3,7", surfaceAnswer{200, "application/json", "", "f5dbf50f8ebcc62be0d345413f9a325af1fbb6fe1c7962b399d9293532a5646f"}},
	{"/query?origins=99", surfaceAnswer{200, "application/json", "", "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570"}},
	{"/query?from=xyz", surfaceAnswer{400, "application/json", "", "9432e30010d5d9bd06184375424457198c61823e03df2653ec0bc9c4e680d03b"}},
	{"/query?to=1e", surfaceAnswer{400, "application/json", "", "7f74a373679056a36104b1586b8ed4fa94d498914ce26cf0084ed6dbe39a301a"}},
	{"/query?origins=a", surfaceAnswer{400, "application/json", "", "2cab02ccf26d20313c8d1d53ad0e31145cc68f587f91cdba577cf4154a55af52"}},
	{"/query?origins=4294967296", surfaceAnswer{400, "application/json", "", "2cecd82a4d553cf449eb047a28a165366380fa4041aec83d3b391c71b422e85e"}},
	{"/files/1", surfaceAnswer{200, "application/json", "", "9759ad0d323fe3c5349032cb93efa17b54edadb4459c1808c9ce3acc0cc498f9"}},
	{"/files/2", surfaceAnswer{200, "application/json", "", "537955b89a7479741a0b0060bcb616cc996c0684f382e2c13544495b0429abff"}},
	{"/files/5", surfaceAnswer{200, "application/json", "", "4d0d539ebe2ef260f7776bcd2f92515db2f2a182318dd1a96520621381e78fe6"}},
	{"/files/99", surfaceAnswer{404, "application/json", "", "f7c94531a183870ffe1e9dd78a28371fd9d5355632d7314a5f2567f197414c9d"}},
	{"/files/bogus", surfaceAnswer{400, "application/json", "", "adf57513134d628a7514e0a09f08df9ff1ed0b0fe6417fb43f22d5192ec4f7ac"}},
	{"/files/4294967296", surfaceAnswer{400, "application/json", "", "f8c833f8082cffd98fbdcc1530b307fadb13fcc3f9cd327f765632a346225b78"}},
	{"/files/1/gaps", surfaceAnswer{200, "application/json", "", "b1fda5bb5270aebaedceb841deb6cea5289db8e7c93d38b0228f01115886b8d6"}},
	{"/files/1/gaps?tolerance=250ms", surfaceAnswer{200, "application/json", "", "5429e9ceecf6fbde15bad6ee0b1a203e4bc3044f19c9af6d5aa898f3f55aebeb"}},
	{"/files/1/gaps?tolerance=5s", surfaceAnswer{200, "application/json", "", "e33ab508a3009aea19eefe664d57f8c84f7226e7a5525ea3e1770c746e345b7a"}},
	{"/files/3/gaps", surfaceAnswer{200, "application/json", "", "48d3cc22ed0734187f15286327e09a216b99699e65830d556be1b14818750200"}},
	{"/files/99/gaps", surfaceAnswer{404, "application/json", "", "f7c94531a183870ffe1e9dd78a28371fd9d5355632d7314a5f2567f197414c9d"}},
	{"/files/x/gaps", surfaceAnswer{400, "application/json", "", "4d1995966b531b01ad83b9c840dc3bea5affb8530eb17e9c0c24f2b9706e33af"}},
	{"/files/1/gaps?tolerance=nope", surfaceAnswer{400, "application/json", "", "bf61c3c71959351adb9abf1ae260da68d720bc35de7ef725d582669d1b8b0d2f"}},
	{"/files/1/gaps?tolerance=-1s", surfaceAnswer{400, "application/json", "", "ead185c6d008efceb8b8826d1c95bfd2b9fb5b16dce68c3327b1bcd97e533096"}},
	{"/files/1/wav", surfaceAnswer{200, "audio/wav", "attachment; filename=file-1.wav", "da0acb328889b6fc2aaa7c79cd26334d48791a58572f0195966814bf381d7c64"}},
	{"/files/1/wav?rate=8000", surfaceAnswer{200, "audio/wav", "attachment; filename=file-1.wav", "d675e3006839a29ef456348cf64446c01bfbeab0759fb277aef86cf0d71af50d"}},
	{"/files/2/wav?rate=1000.5", surfaceAnswer{200, "audio/wav", "attachment; filename=file-2.wav", "219a645114c73bcb193ee482f3a27fb0c368ae3096e5214cfb6cd23b2f997f4d"}},
	{"/files/3/wav", surfaceAnswer{200, "audio/wav", "attachment; filename=file-3.wav", "76952d549d6fe8a41b4d5a465230437b2dcf8aacbf455c44f35eb6e5141c45b6"}},
	{"/files/5/wav", surfaceAnswer{200, "audio/wav", "attachment; filename=file-5.wav", "16266921e1011f1f4ad8155dfc95df63cb18a157adc876aadf14435e29768f67"}}, // erasure-decoded
	{"/files/6/wav", surfaceAnswer{200, "audio/wav", "attachment; filename=file-6.wav", "f803224bb6900d2adce19b828f9be053b1074241003bcf0b99703f236976225b"}},
	{"/files/99/wav", surfaceAnswer{404, "application/json", "", "f7c94531a183870ffe1e9dd78a28371fd9d5355632d7314a5f2567f197414c9d"}},
	{"/files/-1/wav", surfaceAnswer{400, "application/json", "", "5bb41e3dbb1d842c37cb35e8549cfb5bf8d6b12ac96ce3e951725e011b57ec99"}},
	{"/files/1/wav?rate=0", surfaceAnswer{400, "application/json", "", "6db7fc3bb5082bf29168231914e757579aafa69d46599b0cc401a30767ccc277"}},
	{"/files/1/wav?rate=fast", surfaceAnswer{400, "application/json", "", "dc70af50fc6f3a9704dbfaf9456c1f57bc15faf3a9bb50e87f6408dffaf1c16c"}},
}

// surfaceGet performs one read and reduces it to what the table pins,
// plus the partial header.
func surfaceGet(t testing.TB, url string, local bool) (surfaceAnswer, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if local {
		req.Header.Set(LocalHeader, "1")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	sum := sha256.Sum256(body)
	return surfaceAnswer{
		resp.StatusCode, resp.Header.Get("Content-Type"), resp.Header.Get("Content-Disposition"),
		hex.EncodeToString(sum[:]),
	}, resp.Header.Get(PartialHeader)
}

// TestReadSurfacePinned: the same bytes as before the fold, from the same
// code whatever it reads through — the plain archive handler, a station
// with no peers, and each of three stations that hold the archive split
// between them.
func TestReadSurfacePinned(t *testing.T) {
	holdings := surfaceHoldings(t)
	var union []*flash.Chunk
	for _, part := range holdings {
		union = append(union, part...)
	}
	mountings := map[string]string{"plain handler": refServer(t, union).URL}
	alone := newCluster(t, 1, 0)
	mustIngest(t, alone[0].store, union)
	mountings["one station"] = alone[0].srv.URL
	split := newCluster(t, 3, 0)
	for i, ts := range split {
		mustIngest(t, ts.store, holdings[i])
		mountings["three stations, via "+ts.name] = ts.srv.URL
	}
	for name, base := range mountings {
		for _, row := range surfaceTable {
			got, partial := surfaceGet(t, base+row.path, false)
			if got != row.want {
				t.Errorf("%s: %s = %v, pinned %v", name, row.path, got, row.want)
			}
			if partial != "" {
				t.Errorf("%s: %s: partial answer, missing %s", name, row.path, partial)
			}
		}
	}
}

// TestReadSurfacePartialContract: with one of three stations dead and not
// yet probed, every answer that read the federation — whatever its status
// — names the dead peer and counts once; a request refused before it read
// anything, and one marked local, do neither.
func TestReadSurfacePartialContract(t *testing.T) {
	holdings := surfaceHoldings(t)
	cl := newCluster(t, 3, 0)
	for i, ts := range cl {
		mustIngest(t, ts.store, holdings[i])
	}
	cl[2].handler.Store(downHandler)
	counter := cl[0].st.cPartial
	statuses := make(map[int]int)
	for _, row := range surfaceTable {
		before := counter.Value()
		got, partial := surfaceGet(t, cl[0].srv.URL+row.path, false)
		statuses[got.status]++
		wantPartial, wantCount := "s2", int64(1)
		if got.status == http.StatusBadRequest {
			wantPartial, wantCount = "", 0
		}
		if moved := counter.Value() - before; partial != wantPartial || moved != wantCount {
			t.Errorf("%s: HTTP %d, partial %q (want %q), partial_total moved by %d (want %d)",
				row.path, got.status, partial, wantPartial, moved, wantCount)
		}
		before = counter.Value()
		if _, partial := surfaceGet(t, cl[0].srv.URL+row.path, true); partial != "" || counter.Value() != before {
			t.Errorf("%s marked local: partial %q, partial_total moved by %d", row.path, partial, counter.Value()-before)
		}
	}
	for _, status := range []int{http.StatusOK, http.StatusNotFound, http.StatusBadRequest} {
		if statuses[status] == 0 {
			t.Errorf("the table produced no HTTP %d with a peer down: %v", status, statuses)
		}
	}
}

// TestReadParametersBounded: the one parser refuses a rate outside
// [1, 192000] — int(rate) is what the WAV header states and duration × rate
// what the stitch allocates — and a time that is not a finite number of
// nanoseconds, whichever source the request would have read.
func TestReadParametersBounded(t *testing.T) {
	chunks := []*flash.Chunk{mkChunk(1, 1, 0, 0, 10, 50)}
	alone := newCluster(t, 1, 0)
	mustIngest(t, alone[0].store, chunks)
	mountings := map[string]string{"plain handler": refServer(t, chunks).URL, "one station": alone[0].srv.URL}
	for _, tc := range []struct {
		path   string
		status int
	}{
		{"/files/1/wav?rate=1e12", 400}, // 2 × 10 TB of slices for these ten seconds
		{"/files/1/wav?rate=NaN", 400},
		{"/files/1/wav?rate=Inf", 400},
		{"/files/1/wav?rate=-Inf", 400},
		{"/files/1/wav?rate=-8000", 400},
		{"/files/1/wav?rate=0.5", 400}, // a header rate of 0
		{"/files/1/wav?rate=192000.5", 400},
		{"/files/1/wav?rate=1", 200},
		{"/files/1/wav?rate=192000", 200},
		{"/query?from=NaN", 400},
		{"/query?to=Inf", 400},
		{"/query?from=-Inf", 400},
		{"/query?from=1e10", 400}, // 1e19 ns
		{"/query?to=-1e10", 400},
		{"/query?from=9223372036.854775808", 400}, // 2^63 ns exactly
		{"/query?to=9e9", 200},
		{"/query?from=-9e9", 200},
	} {
		for name, base := range mountings {
			if got, _ := surfaceGet(t, base+tc.path, false); got.status != tc.status {
				t.Errorf("%s: %s = HTTP %d, want %d", name, tc.path, got.status, tc.status)
			}
		}
	}
}

// TestUnreadableParityFailsTheRead: parity that is archived but cannot be
// read is a 500, not "no parity archived" — from the plain handler, from
// a station with no peers and, naming the peer, from one whose peer is
// down. Parity that is simply absent is a 200 from each.
func TestUnreadableParityFailsTheRead(t *testing.T) {
	holdings := surfaceHoldings(t)
	var data, parity []*flash.Chunk
	for _, part := range holdings {
		for _, c := range part {
			switch c.File {
			case 5:
				data = append(data, c)
			case 5 | erasure.ParityFileBit:
				parity = append(parity, c)
			}
		}
	}
	dead := httptest.NewServer(downHandler)
	defer dead.Close()

	// serve opens the archive at dir behind each mounting and reads
	// /files/5/wav through all three.
	serve := func(dir string) (answers [3]surfaceAnswer, partial [3]string) {
		store, err := archive.Open(dir, archive.Options{Shards: 1})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer store.Close()
		handlers := []http.Handler{archive.NewHandler(store, nil)}
		for _, cfg := range []Config{{Self: "solo"}, {Self: "a", Peers: []Peer{{Name: "b", URL: dead.URL}}}} {
			st, err := New(store, cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer st.Close()
			handlers = append(handlers, st.Handler())
		}
		for i, h := range handlers {
			srv := httptest.NewServer(h)
			answers[i], partial[i] = surfaceGet(t, srv.URL+"/files/5/wav", false)
			srv.Close()
		}
		return answers, partial
	}
	build := func(batches ...[]*flash.Chunk) string {
		dir := filepath.Join(t.TempDir(), "arch")
		store, err := archive.Open(dir, archive.Options{Shards: 1})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		for _, b := range batches {
			mustIngest(t, store, b)
		}
		if err := store.Close(); err != nil { // leaves a snapshot: the reopen verifies CRCs on first read
			t.Fatalf("Close: %v", err)
		}
		return dir
	}

	answers, partial := serve(build(data))
	for i, a := range answers {
		if a.status != http.StatusOK || a != answers[0] {
			t.Errorf("no parity archived, mounting %d: %v, the plain handler %v", i, a, answers[0])
		}
	}
	if partial != [3]string{"", "", "b"} {
		t.Errorf("no parity archived: partial headers %q", partial)
	}

	// The parity frames are the segment's tail: flip its last payload byte.
	dir := build(data, parity)
	seg := filepath.Join(dir, "shard-000.seg")
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 1
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	answers, partial = serve(dir)
	for i, a := range answers {
		if a.status != http.StatusInternalServerError || a.ctype != "application/json" {
			t.Errorf("corrupt parity, mounting %d: %v, want a JSON 500", i, a)
		}
	}
	if partial != [3]string{"", "", "b"} {
		t.Errorf("corrupt parity: partial headers %q, want the down peer named on the 500 too", partial)
	}
}
