package sociometry

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"icares/internal/habitat"
	"icares/internal/mission"
	"icares/internal/record"
	"icares/internal/simtime"
	"icares/internal/store"
	"icares/internal/timesync"
)

// fixtureRecords returns the fixture mission's raw records, per badge on
// the badge's local clock, and the corrections the batch pipeline fits over
// them. Parity tests replay the records into fresh datasets read under
// WithCorrections(cors) — the live path a fleet habitat takes — so
// fold-order experiments are isolated from correction estimation (which is
// deliberately frozen at the first fit and therefore depends on which
// records have arrived).
func fixtureRecords(t *testing.T) (map[store.BadgeID][]record.Record, map[store.BadgeID]timesync.Correction) {
	t.Helper()
	cors, err := fixturePipeline(t).RectifyClocks()
	if err != nil {
		t.Fatal(err)
	}
	ds := missionFixture(t).Dataset
	out := make(map[store.BadgeID][]record.Record)
	for _, id := range ds.Badges() {
		out[id] = ds.Series(id).All()
	}
	return out, cors
}

// fixtureSource builds a pipeline source over the given dataset with the
// fixture mission's assignment and crew.
func fixtureSource(t *testing.T, ds *store.Dataset) Source {
	t.Helper()
	res := missionFixture(t)
	return Source{
		Habitat: res.Habitat,
		Data:    ds,
		Names:   mission.Names(),
		BadgeFor: func(name string, day int) store.BadgeID {
			return res.Assignment.TrueBadgeFor(name, day)
		},
		VoiceProfiles: voiceProfiles(res),
		FirstDay:      2,
		LastDay:       res.Config.Scenario.Days,
	}
}

func loadAll(ds *store.Dataset, recs map[store.BadgeID][]record.Record) {
	ids := make([]store.BadgeID, 0, len(recs))
	for id := range recs {
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	for _, id := range ids {
		s := ds.Series(id)
		for _, r := range recs[id] {
			s.Append(r)
		}
	}
}

// TestFoldParityRandomChunks is the central incremental-operator property:
// folding the same records into a following pipeline in arbitrary chunk
// sizes and arbitrary cross-badge interleavings — with analyses issued
// mid-stream — must end in a report byte-identical to the batch pipeline
// that saw everything up front. Per-badge record order is preserved, as the
// gateway's per-badge upload streams preserve it.
func TestFoldParityRandomChunks(t *testing.T) {
	recs, cors := fixtureRecords(t)

	batchDS := store.NewDataset()
	loadAll(batchDS, recs)
	batchP, err := NewPipeline(fixtureSource(t, batchDS), WithCorrections(cors))
	if err != nil {
		t.Fatal(err)
	}
	want := batchP.Report()

	property := func(seed uint64) bool {
		rng := rand.New(rand.NewSource(int64(seed)))
		ds := store.NewDataset()
		p, err := NewPipeline(fixtureSource(t, ds), WithCorrections(cors))
		if err != nil {
			t.Fatal(err)
		}
		stop := p.Follow()
		defer stop()

		// Random contiguous per-badge chunks, delivered in a random
		// cross-badge interleaving (per-badge order preserved).
		type chunk struct {
			id   store.BadgeID
			recs []record.Record
		}
		queues := make(map[store.BadgeID][][]record.Record)
		var ids []store.BadgeID
		for id, rs := range recs {
			ids = append(ids, id)
			for len(rs) > 0 {
				n := 1 + rng.Intn(len(rs))
				queues[id] = append(queues[id], rs[:n])
				rs = rs[n:]
			}
		}
		var schedule []chunk
		for len(ids) > 0 {
			i := rng.Intn(len(ids))
			id := ids[i]
			schedule = append(schedule, chunk{id, queues[id][0]})
			queues[id] = queues[id][1:]
			if len(queues[id]) == 0 {
				ids[i] = ids[len(ids)-1]
				ids = ids[:len(ids)-1]
			}
		}
		for ci, c := range schedule {
			s := ds.Series(c.id)
			for _, r := range c.recs {
				s.Append(r)
			}
			// A couple of mid-stream analyses: they must fold the pending
			// windows in without corrupting later results.
			if ci == len(schedule)/3 || ci == 2*len(schedule)/3 {
				p.Transitions(nil)
			}
		}
		return p.Report() == want
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 3}); err != nil {
		t.Fatal(err)
	}
}

// TestFoldWhileReadersQuery exercises the live path under the race
// detector: a writer folds the final day's records in while readers query,
// and once appends quiesce the next analyses are exact.
func TestFoldWhileReadersQuery(t *testing.T) {
	recs, cors := fixtureRecords(t)
	res := missionFixture(t)
	cut := simtime.StartOfDay(res.Config.Scenario.Days)

	batchDS := store.NewDataset()
	loadAll(batchDS, recs)
	batchP, err := NewPipeline(fixtureSource(t, batchDS), WithCorrections(cors))
	if err != nil {
		t.Fatal(err)
	}

	liveDS := store.NewDataset()
	head := make(map[store.BadgeID][]record.Record)
	tail := make(map[store.BadgeID][]record.Record)
	for id, rs := range recs {
		for _, r := range rs {
			if r.Local < cut {
				head[id] = append(head[id], r)
			} else {
				tail[id] = append(tail[id], r)
			}
		}
	}
	loadAll(liveDS, head)
	p, err := NewPipeline(fixtureSource(t, liveDS), WithCorrections(cors))
	if err != nil {
		t.Fatal(err)
	}
	stop := p.Follow()
	defer stop()
	p.Warm()

	var wg sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				p.Transitions(nil)
				p.WalkingFraction("A")
				p.Pairwise()
			}
		}()
	}
	loadAll(liveDS, tail)
	close(done)
	wg.Wait()

	if got, want := p.Transitions(nil), batchP.Transitions(nil); !reflect.DeepEqual(got, want) {
		t.Errorf("transitions after fold = %v, want %v", got, want)
	}
	for _, name := range mission.Names() {
		if got, want := p.WalkingFraction(name), batchP.WalkingFraction(name); got != want {
			t.Errorf("%s walking fraction = %v, want %v", name, got, want)
		}
	}
	if got, want := p.Pairwise(), batchP.Pairwise(); !reflect.DeepEqual(got, want) {
		t.Errorf("pairwise after fold diverged from batch")
	}
}

// TestWindowScopedInvalidation pins the fold's recomputation scope: one
// appended record recomputes exactly its (astronaut, day) window and the
// astronaut-level caches folding it — every other window stays warm.
func TestWindowScopedInvalidation(t *testing.T) {
	recs, cors := fixtureRecords(t)
	res := missionFixture(t)
	lastDay := res.Config.Scenario.Days

	ds := store.NewDataset()
	loadAll(ds, recs)
	p, err := NewPipeline(fixtureSource(t, ds), WithCorrections(cors))
	if err != nil {
		t.Fatal(err)
	}
	stop := p.Follow()
	defer stop()
	p.Warm()

	winTrack0 := p.winTrack.computeCount()
	track0 := p.trackCache.computeCount()
	frames0 := p.framesCache.computeCount()

	// One accel record for the badge A wore on the last day.
	id := res.Assignment.TrueBadgeFor("A", lastDay)
	if id == 0 {
		t.Fatal("A unassigned on last day")
	}
	ds.Series(id).Append(record.Record{
		Local: simtime.StartOfDay(lastDay) + 12*time.Hour,
		Kind:  record.KindAccel,
	})

	for _, name := range mission.Names() {
		p.Track(name)
	}
	if got := p.winTrack.computeCount() - winTrack0; got != 1 {
		t.Errorf("window track recomputes = %d, want 1", got)
	}
	if got := p.trackCache.computeCount() - track0; got != 1 {
		t.Errorf("astronaut track recomputes = %d, want 1", got)
	}
	// Frames depend on the same records: the stale window dropped them too,
	// but nobody re-queried, so no recompute yet.
	if got := p.framesCache.computeCount() - frames0; got != 0 {
		t.Errorf("frames recomputed without being queried: %d", got)
	}
}

// syntheticSyncSource builds a one-badge dataset whose sync records encode a
// known clock error, plus the pipeline source over it.
func syntheticSyncSource(offset time.Duration, skew float64) (Source, *store.Dataset) {
	ds := store.NewDataset()
	s := ds.Series(1)
	toLocal := func(ref time.Duration) time.Duration {
		return offset + time.Duration(float64(ref)*(1+skew))
	}
	day2 := simtime.StartOfDay(2)
	for i := 0; i < 12; i++ {
		ref := day2 + time.Duration(i)*time.Hour
		s.Append(record.Record{Local: toLocal(ref), Kind: record.KindSync, RefTime: ref})
	}
	src := Source{
		Habitat:  habitat.Standard(),
		Data:     ds,
		Names:    []string{"A"},
		BadgeFor: func(string, int) store.BadgeID { return 1 },
		FirstDay: 2,
		LastDay:  2,
	}
	return src, ds
}

// drain collects every record a cursor yields.
func drain(it record.Cursor) []record.Record {
	var out []record.Record
	for it.Next() {
		out = append(out, it.Record())
	}
	return out
}

// TestRectifyOnIngest pins the live-rectification contract: after the first
// analysis fitted the corrections, a record appended later reads in
// reference time through the frozen correction — later sync exchanges do
// not re-fit — while the dataset keeps it on the local clock.
func TestRectifyOnIngest(t *testing.T) {
	src, ds := syntheticSyncSource(1500*time.Millisecond, 25e-6)
	p, err := NewPipeline(src)
	if err != nil {
		t.Fatal(err)
	}
	cors, err := p.RectifyClocks()
	if err != nil {
		t.Fatal(err)
	}
	c, ok := cors[1]
	if !ok || c.N == 0 {
		t.Fatalf("no correction estimated: %+v", cors)
	}

	local := simtime.StartOfDay(2) + 13*time.Hour + 1234*time.Millisecond
	ds.Series(1).Append(record.Record{Local: local, Kind: record.KindAccel})
	// A sync exchange on a very different clock must not move the fit.
	ds.Series(1).Append(record.Record{Local: local + time.Hour, Kind: record.KindSync, RefTime: local})

	all := ds.Series(1).Kind(record.KindAccel)
	if len(all) != 1 || all[0].Local != local {
		t.Fatalf("dataset holds %+v, want the appended record on its local clock %v", all, local)
	}
	if again, _ := p.RectifyClocks(); again[1] != c {
		t.Errorf("correction re-fitted after ingest: %+v, want frozen %+v", again[1], c)
	}
	got := drain(p.crewIter("A", record.KindAccel))
	if len(got) != 1 {
		t.Fatalf("pipeline reads %d accel records, want 1", len(got))
	}
	if want := c.ToReference(local); got[0].Local != want {
		t.Errorf("ingested record reads at %v, want rectified %v", got[0].Local, want)
	}
}

// TestWithoutRectificationBothPaths covers both rectification paths over
// one source: the ablation (WithCorrections(nil)) reports no corrections and
// reads the skewed local clocks, the default pipeline fits and reads
// reference time, and neither rewrites the dataset they share.
func TestWithoutRectificationBothPaths(t *testing.T) {
	src, ds := syntheticSyncSource(2*time.Second, 0)
	before := append([]record.Record(nil), ds.Series(1).All()...)

	ablated, err := NewPipeline(src, WithCorrections(nil))
	if err != nil {
		t.Fatal(err)
	}
	cors, err := ablated.RectifyClocks()
	if err != nil {
		t.Fatal(err)
	}
	if len(cors) != 0 {
		t.Errorf("ablated pipeline produced corrections: %v", cors)
	}
	if !reflect.DeepEqual(drain(ablated.crewIter("A", 0)), before) {
		t.Error("ablated pipeline does not read the local clocks")
	}

	normal, err := NewPipeline(src)
	if err != nil {
		t.Fatal(err)
	}
	cors, err = normal.RectifyClocks()
	if err != nil {
		t.Fatal(err)
	}
	if len(cors) == 0 {
		t.Fatal("default pipeline did not fit corrections")
	}
	if reflect.DeepEqual(drain(normal.crewIter("A", 0)), before) {
		t.Error("default pipeline reads the skewed timestamps")
	}
	if !reflect.DeepEqual(before, ds.Series(1).All()) {
		t.Error("a pipeline rewrote the shared dataset")
	}
}

// TestFoldAcrossMidnightUnderSkew pins that a live fold marks the window of
// an appended record's reference-time day, not its local-clock day. The
// badge's clock runs a minute behind reference time, so beacon sightings
// appended after the first analysis at local 23:59 of day 2 belong to
// day 3 once rectified. Marking the local day would leave day 3's memoized
// track without them, and the live report would diverge from the batch one.
func TestFoldAcrossMidnightUnderSkew(t *testing.T) {
	sites := habitat.Standard().Beacons()
	home, away := sites[0], sites[0]
	for _, s := range sites {
		if s.Room != home.Room {
			away = s
			break
		}
	}
	if away.Room == home.Room {
		t.Fatal("standard habitat has beacons in one room only")
	}
	c := timesync.Correction{Offset: -time.Minute, N: 1}
	local := func(ref time.Duration) time.Duration { return c.ToLocal(ref) }
	beacon := func(ref time.Duration, site habitat.BeaconSite) record.Record {
		return record.Record{Local: local(ref), Kind: record.KindBeacon, PeerID: uint16(site.ID), RSSI: -50}
	}
	midnight := simtime.StartOfDay(3)

	// Worn throughout, at home from 22:00 to 02:00 except a gap in the
	// first five minutes of day 3.
	var head []record.Record
	head = append(head, record.Record{Local: local(simtime.StartOfDay(2)), Kind: record.KindWear, Worn: true})
	for ref := midnight - 2*time.Hour; ref < midnight+2*time.Hour; ref += 5 * time.Second {
		if ref < midnight || ref >= midnight+5*time.Minute {
			head = append(head, beacon(ref, home))
		}
	}
	// Appended later: a minute away, in the gap — local day 2, reference
	// day 3.
	var tail []record.Record
	for ref := midnight + 5*time.Second; ref < midnight+time.Minute; ref += 5 * time.Second {
		r := beacon(ref, away)
		if simtime.DayOf(r.Local) != 2 || simtime.DayOf(ref) != 3 {
			t.Fatalf("fixture record at local %v / ref %v does not straddle midnight", r.Local, ref)
		}
		tail = append(tail, r)
	}

	source := func(ds *store.Dataset) Source {
		return Source{
			Habitat:  habitat.Standard(),
			Data:     ds,
			Names:    []string{"A"},
			BadgeFor: func(string, int) store.BadgeID { return 1 },
			FirstDay: 2,
			LastDay:  3,
		}
	}
	cors := map[store.BadgeID]timesync.Correction{1: c}

	liveDS := store.NewDataset()
	loadAll(liveDS, map[store.BadgeID][]record.Record{1: head})
	live, err := NewPipeline(source(liveDS), WithCorrections(cors))
	if err != nil {
		t.Fatal(err)
	}
	stop := live.Follow()
	defer stop()
	first := live.Report()
	loadAll(liveDS, map[store.BadgeID][]record.Record{1: tail})
	got := live.Report()

	batchDS := store.NewDataset()
	loadAll(batchDS, map[store.BadgeID][]record.Record{1: append(append([]record.Record(nil), head...), tail...)})
	batch, err := NewPipeline(source(batchDS), WithCorrections(cors))
	if err != nil {
		t.Fatal(err)
	}
	want := batch.Report()
	if want == first {
		t.Fatal("appended records do not change the report; fixture no longer exercises the fold")
	}
	if got != want {
		t.Errorf("live report after a midnight-straddling append diverges from batch:\n--- live ---\n%s\n--- batch ---\n%s", got, want)
	}
}

// TestFirstAnalysisRacesAppends races a following pipeline's first
// analyses — and with them the moment its corrections become final —
// against the appends that fill its empty dataset. Appends notified before
// that moment are not marked stale, which is exact only because no window
// can have been read yet; once appends quiesce, the report must equal the
// batch one. Run with -race.
func TestFirstAnalysisRacesAppends(t *testing.T) {
	const seed = 31
	batchDS := randomMission(seed)
	cors := FitCorrections(batchDS)
	batch, err := NewPipeline(missionSource(batchDS), WithCorrections(cors))
	if err != nil {
		t.Fatal(err)
	}
	want := batch.Report()

	recs := make(map[store.BadgeID][]record.Record)
	for _, id := range batchDS.Badges() {
		recs[id] = batchDS.Series(id).All()
	}
	liveDS := store.NewDataset()
	live, err := NewPipeline(missionSource(liveDS), WithCorrections(cors))
	if err != nil {
		t.Fatal(err)
	}
	stop := live.Follow()
	defer stop()

	var wg sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				live.Transitions(nil)
				live.WalkingFraction("N1")
			}
		}()
	}
	loadAll(liveDS, recs)
	close(done)
	wg.Wait()

	if got := live.Report(); got != want {
		t.Errorf("live report after racing appends diverges from batch:\n--- live ---\n%s\n--- batch ---\n%s", got, want)
	}
}
