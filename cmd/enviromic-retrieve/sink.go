package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"enviromic/internal/archive"
	"enviromic/internal/erasure"
	"enviromic/internal/flash"
)

// archiveSink is where mule tours flush. The -archive flag names either
// a local archive directory (the original path, unchanged) or a
// comma-separated list of station URLs; with stations, tours round-robin
// across them — each stripe of the city lands on a different
// basestation and federation replication spreads it from there.
type archiveSink struct {
	dir    string
	store  *archive.Store
	urls   []string
	client *http.Client
	// bodyChunks is how many chunks one POST /ingest body may carry and
	// stay under the station's bound whatever their payloads.
	bodyChunks int
}

// isStationSpec reports whether an -archive value names HTTP stations
// rather than a local directory: any URL scheme, or a comma-separated
// list.
func isStationSpec(spec string) bool {
	return strings.Contains(spec, "://") || strings.Contains(spec, ",")
}

func openSink(spec string, tol time.Duration) (*archiveSink, error) {
	if !isStationSpec(spec) {
		store, err := archive.Open(spec, archive.Options{GapTolerance: tol})
		if err != nil {
			return nil, err
		}
		return &archiveSink{dir: spec, store: store}, nil
	}
	s := &archiveSink{
		client:     &http.Client{Timeout: 30 * time.Second},
		bodyChunks: archive.MaxIngestBytes / archive.MaxFrameBytes,
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if !strings.Contains(part, "://") {
			part = "http://" + part
		}
		s.urls = append(s.urls, strings.TrimRight(part, "/"))
	}
	if len(s.urls) == 0 {
		return nil, fmt.Errorf("enviromic-retrieve: -archive %q names no stations", spec)
	}
	return s, nil
}

// target names where tour i flushes, for log lines.
func (s *archiveSink) target(tour int) string {
	if s.store != nil {
		return s.dir
	}
	return s.urls[tour%len(s.urls)]
}

// flushReport is the ingest outcome in either mode — the local
// IngestReport fields plus the server-computed re-query list.
type flushReport struct {
	Added      int              `json:"added"`
	Duplicates int              `json:"duplicates"`
	Superseded int              `json:"superseded"`
	Files      []flushFileDelta `json:"files"`
	Requery    []flash.FileID   `json:"requery_files"`
}

type flushFileDelta struct {
	File       flash.FileID `json:"file"`
	Added      int          `json:"added"`
	Duplicates int          `json:"duplicates"`
	Superseded int          `json:"superseded"`
	GapsBefore int          `json:"gaps_before"`
	GapsAfter  int          `json:"gaps_after"`
}

// add folds the report of a tour's next body into r: counts add up, a
// file both bodies touched keeps the first's "before" and takes the
// second's "after", and the second body's word on whether such a file
// still needs a re-query replaces the first's.
func (r *flushReport) add(next flushReport) {
	r.Added += next.Added
	r.Duplicates += next.Duplicates
	r.Superseded += next.Superseded
	at := make(map[flash.FileID]int, len(r.Files))
	for i, d := range r.Files {
		at[d.File] = i
	}
	retouched := make(map[flash.FileID]bool, len(next.Files))
	for _, d := range next.Files {
		retouched[d.File] = true
		i, seen := at[d.File]
		if !seen {
			r.Files = append(r.Files, d)
			continue
		}
		have := &r.Files[i]
		have.Added += d.Added
		have.Duplicates += d.Duplicates
		have.Superseded += d.Superseded
		have.GapsAfter = d.GapsAfter
	}
	sort.Slice(r.Files, func(i, j int) bool { return r.Files[i].File < r.Files[j].File })
	requery := next.Requery
	for _, id := range r.Requery {
		if !retouched[id&^erasure.ParityFileBit] {
			requery = append(requery, id)
		}
	}
	sort.Slice(requery, func(i, j int) bool { return requery[i] < requery[j] })
	r.Requery = requery
}

// flush ingests one tour's chunks: locally, or POSTed to tour's
// round-robin station as the same segment frames /ingest always took —
// cut at frame boundaries into as many bodies as the station's bound on
// one body needs, the reports summed.
func (s *archiveSink) flush(tour int, chunks []*flash.Chunk) (flushReport, error) {
	if s.store != nil {
		rep, err := s.store.Ingest(chunks)
		if err != nil {
			return flushReport{}, err
		}
		out := flushReport{Added: rep.Added, Duplicates: rep.Duplicates, Superseded: rep.Superseded}
		for _, d := range rep.Files {
			out.Files = append(out.Files, flushFileDelta{
				File: d.File, Added: d.Added, Duplicates: d.Duplicates,
				Superseded: d.Superseded, GapsBefore: d.GapsBefore, GapsAfter: d.GapsAfter,
			})
		}
		for id := range rep.Requery().Files {
			out.Requery = append(out.Requery, id)
		}
		sort.Slice(out.Requery, func(i, j int) bool { return out.Requery[i] < out.Requery[j] })
		return out, nil
	}
	url := s.target(tour) + "/ingest"
	var total flushReport
	for {
		n := min(len(chunks), s.bodyChunks)
		rep, err := s.post(url, chunks[:n])
		if err != nil {
			// Bodies already taken stay ingested; flushing the tour
			// again finds them as duplicates.
			return flushReport{}, err
		}
		total.add(rep)
		if chunks = chunks[n:]; len(chunks) == 0 {
			return total, nil
		}
	}
}

// post ships one body of chunks to a station's /ingest and decodes its
// report, reading no more of the reply than a body's worth.
func (s *archiveSink) post(url string, chunks []*flash.Chunk) (flushReport, error) {
	frames, err := archive.EncodeFrames(chunks)
	if err != nil {
		return flushReport{}, err
	}
	resp, err := s.client.Post(url, "application/octet-stream", bytes.NewReader(frames))
	if err != nil {
		return flushReport{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, archive.MaxIngestBytes+1))
	if err != nil {
		return flushReport{}, err
	}
	if len(body) > archive.MaxIngestBytes {
		return flushReport{}, fmt.Errorf("POST %s: reply exceeds %d bytes", url, archive.MaxIngestBytes)
	}
	if resp.StatusCode != http.StatusOK {
		return flushReport{}, fmt.Errorf("POST %s: HTTP %d: %s", url, resp.StatusCode, bytes.TrimSpace(body))
	}
	var rep flushReport
	if err := json.Unmarshal(body, &rep); err != nil {
		return flushReport{}, fmt.Errorf("POST %s: %v", url, err)
	}
	return rep, nil
}

// summary prints the post-flush archive totals: local store stats, or
// one /stats line per station.
func (s *archiveSink) summary() {
	if s.store != nil {
		st := s.store.Stats()
		fmt.Printf("    archive now: %d files, %d chunks, %d bytes (superseded on disk: %d)\n",
			st.Files, st.Chunks, st.Bytes, st.SupersededBytes)
		return
	}
	for _, u := range s.urls {
		var st archive.Stats
		resp, err := s.client.Get(u + "/stats")
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
		}
		if err != nil {
			fmt.Printf("    station %s: stats unavailable (%v)\n", u, err)
			continue
		}
		fmt.Printf("    station %s: %d files, %d chunks, %d bytes\n", u, st.Files, st.Chunks, st.Bytes)
	}
}

func (s *archiveSink) close() error {
	if s.store != nil {
		return s.store.Close()
	}
	return nil
}
