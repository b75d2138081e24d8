package archive

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"enviromic/internal/flash"
	"enviromic/internal/sim"
)

// checkIndexUpkeep holds what a group commit maintains incrementally to
// what a from-scratch computation gives: the interval index to
// rebuildInterval, the writer's remembered gap state to gapsIn. The
// caller guarantees no ingest is in flight, so the shard writers are idle
// and their private state is readable.
func checkIndexUpkeep(t *testing.T, s *Store, touched map[flash.FileID]bool) {
	t.Helper()
	for _, sh := range s.shards {
		oracle := &shard{files: sh.files}
		oracle.rebuildInterval()
		if !reflect.DeepEqual(sh.byStart, oracle.byStart) {
			t.Fatalf("shard %d: byStart is not what a rebuild gives (%d vs %d files)", sh.id, len(sh.byStart), len(oracle.byStart))
		}
		if !reflect.DeepEqual(sh.prefixMaxEnd, oracle.prefixMaxEnd) {
			t.Fatalf("shard %d: prefixMaxEnd\n%v, a rebuild gives\n%v", sh.id, sh.prefixMaxEnd, oracle.prefixMaxEnd)
		}
		for id, fm := range sh.files {
			if touched[id] && !fm.gapsKnown {
				t.Fatalf("file %d: touched, yet its gap state is unknown", id)
			}
			if g := gapsIn(fm.chunks, s.opts.GapTolerance); fm.gapsKnown && (fm.gaps != len(g) || fm.gapSpan != gapSpan(g)) {
				t.Fatalf("file %d: writer remembers %d gaps over %v, the chunk list has %d over %v",
					id, fm.gaps, fm.gapSpan, len(g), gapSpan(g))
			}
		}
	}
}

// TestIndexUpkeepMatchesRebuild drives random groups of every kind through
// the pipeline — new files anywhere in time, a start moving earlier, ends
// growing, duplicates only, longer copies superseding, several
// submissions in one group — and after each one checks the incremental
// upkeep against the oracles, Query against a brute-force scan of the
// listing, and the deltas' gap counts against the listing's. A reopen by
// scan must then give the same listing.
func TestIndexUpkeepMatchesRebuild(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{Shards: 2})
	rng := rand.New(rand.NewSource(22))
	// Times sit far enough from zero that no start moving earlier reaches
	// it (a zero bound means "unbounded" to Query).
	const base = 1_000_000
	at := func(ms int) sim.Time { return sim.At(time.Duration(ms) * time.Millisecond) }
	var (
		sent   []*flash.Chunk // every chunk ever ingested
		nextID = flash.FileID(1)
		spans  = map[flash.FileID][2]int{} // file -> [start, end) in ms, as sent
		seqs   = map[flash.FileID]uint32{}
	)
	mk := func(id flash.FileID, startMs, lenMs, n int) *flash.Chunk {
		c := &flash.Chunk{
			File: id, Origin: int32(rng.Intn(4)), Seq: seqs[id],
			Start: at(startMs), End: at(startMs + lenMs), Data: make([]byte, n),
		}
		seqs[id]++
		sp, ok := spans[id]
		if !ok || startMs < sp[0] {
			sp[0] = startMs
		}
		if !ok || startMs+lenMs > sp[1] {
			sp[1] = startMs + lenMs
		}
		spans[id] = sp
		sent = append(sent, c)
		return c
	}
	existing := func() flash.FileID { return flash.FileID(1 + rng.Intn(int(nextID)-1)) }
	group := func() []*flash.Chunk {
		var g []*flash.Chunk
		kind := rng.Intn(6)
		if nextID == 1 {
			kind = 0
		}
		switch kind {
		case 0: // new files, anywhere in time
			for n := 1 + rng.Intn(3); n > 0; n-- {
				g = append(g, mk(nextID, base+rng.Intn(100_000), 83, 1+rng.Intn(20)))
				nextID++
			}
		case 1: // a start moves earlier (perhaps past other files)
			id := existing()
			g = append(g, mk(id, max(1, spans[id][0]-1-rng.Intn(30_000)), 83, 8))
		case 2: // ends grow, with and without leaving a gap
			for n := 1 + rng.Intn(3); n > 0; n-- {
				id := existing()
				g = append(g, mk(id, spans[id][1]+rng.Intn(2)*900, 83+rng.Intn(5000), 8))
			}
		case 3: // duplicates only
			for n := 1 + rng.Intn(5); n > 0; n-- {
				g = append(g, sent[rng.Intn(len(sent))])
			}
		case 4: // a longer copy supersedes, inside the group and across groups
			old := sent[rng.Intn(len(sent))]
			cp := *old
			cp.Data = make([]byte, len(old.Data)+1+rng.Intn(8))
			if len(cp.Data) > flash.PayloadSize {
				return []*flash.Chunk{old}
			}
			cp2 := cp
			cp2.Data = append([]byte{1}, cp.Data...)
			sent = append(sent, &cp)
			g = append(g, &cp)
			if len(cp2.Data) <= flash.PayloadSize && rng.Intn(2) == 0 {
				sent = append(sent, &cp2)
				g = append(g, &cp2)
			}
		case 5: // a mid-file chunk: neither start nor end moves
			id := existing()
			if sp := spans[id]; sp[1]-sp[0] > 200 {
				g = append(g, mk(id, sp[0]+1+rng.Intn(sp[1]-sp[0]-100), 50, 8))
			} else {
				g = append(g, sent[0])
			}
		}
		return g
	}

	for round := 0; round < 400; round++ {
		touched := map[flash.FileID]bool{}
		if round%10 == 9 {
			// Several submissions at once: the writers fold them into groups.
			var wg sync.WaitGroup
			for k := 0; k < 4; k++ {
				g := group()
				for _, c := range g {
					touched[c.File] = true
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := s.Ingest(g); err != nil {
						t.Error(err)
					}
				}()
			}
			wg.Wait()
		} else {
			g := group()
			for _, c := range g {
				touched[c.File] = true
			}
			rep := mustIngest(t, s, g)
			for _, d := range rep.Files {
				if fi, err := s.Info(d.File); err != nil || fi.Gaps != d.GapsAfter {
					t.Fatalf("round %d: file %d lists %d gaps, its delta says %d after (%v)", round, d.File, fi.Gaps, d.GapsAfter, err)
				}
			}
		}
		checkIndexUpkeep(t, s, touched)

		all := s.Files()
		for trial := 0; trial < 5; trial++ {
			from := at(base - 35_000 + rng.Intn(145_000))
			to := from.Add(time.Duration(1+rng.Intn(20_000)) * time.Millisecond)
			var want []flash.FileID
			for _, fi := range all {
				if fi.Start < to && fi.End > from {
					want = append(want, fi.ID)
				}
			}
			got := map[flash.FileID]bool{}
			for _, fi := range s.Query(from, to, nil) {
				got[fi.ID] = true
			}
			if len(got) != len(want) {
				t.Fatalf("round %d: Query[%v,%v) = %d files, a scan finds %d", round, from, to, len(got), len(want))
			}
			for _, id := range want {
				if !got[id] {
					t.Fatalf("round %d: Query[%v,%v) misses file %d", round, from, to, id)
				}
			}
		}
	}

	want := s.Files()
	s.crashClose()
	s2 := openTest(t, dir, Options{NoSnapshots: true})
	defer s2.Close()
	got := s2.Files()
	if len(got) != len(want) {
		t.Fatalf("reopen by scan lists %d files, the ingest-built index listed %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("reopen by scan lists %+v, the ingest-built index listed %+v", got[i], want[i])
		}
	}
	checkIndexUpkeep(t, s2, nil)
}
