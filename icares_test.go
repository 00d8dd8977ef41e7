package icares

import (
	"math"
	"sync"
	"testing"
	"time"

	"icares/internal/mission"
	"icares/internal/record"
	"icares/internal/store"
	"icares/internal/support"
	"icares/internal/survey"
	"icares/internal/uplink"
)

// One shared 3-day mission for the facade tests.
var (
	facadeOnce sync.Once
	facadeM    *Mission
	facadeErr  error
)

func facadeMission(t *testing.T) *Mission {
	t.Helper()
	if testing.Short() {
		t.Skip("mission simulation in -short mode")
	}
	facadeOnce.Do(func() {
		facadeM, facadeErr = Simulate(Options{Seed: 5, Days: 3})
	})
	if facadeErr != nil {
		t.Fatal(facadeErr)
	}
	return facadeM
}

func TestSimulateBasics(t *testing.T) {
	m := facadeMission(t)
	if got := len(m.Names()); got != 6 {
		t.Errorf("names = %d", got)
	}
	if m.Result().Dataset.TotalRecords() == 0 {
		t.Error("empty dataset")
	}
	if m.Horizon() != 3*24*time.Hour {
		t.Errorf("horizon = %v", m.Horizon())
	}
	profiles := m.VoiceProfiles()
	if len(profiles) != 6 || profiles["C"] == 0 {
		t.Errorf("voice profiles = %v", profiles)
	}
}

func TestFacadePipelineViews(t *testing.T) {
	m := facadeMission(t)
	pipe, err := m.Pipeline(TrueAssignment)
	if err != nil {
		t.Fatal(err)
	}
	if got := pipe.Transitions(nil).Total(); got == 0 {
		t.Error("no transitions")
	}
	// The nominal view on the same mission still works (rectification is
	// idempotent on the shared dataset).
	nom, err := m.Pipeline(NominalAssignment)
	if err != nil {
		t.Fatal(err)
	}
	if got := nom.Transitions(nil).Total(); got == 0 {
		t.Error("no transitions under nominal view")
	}
}

func TestFacadeSupportSystem(t *testing.T) {
	m := facadeMission(t)
	daemon, replayer := m.SupportSystem()
	n := replayer.Run(0, m.Horizon())
	if n == 0 {
		t.Fatal("nothing replayed")
	}
	if len(daemon.Alerts()) == 0 {
		t.Error("a 3-day mission raised no alerts at all")
	}
	// Detector suite: at least wear-compliance nudges should exist given
	// the scripted compliance decay.
	if len(daemon.AlertsOfKind("wear-compliance")) == 0 {
		t.Error("no wear-compliance alerts")
	}
}

func TestFacadeCouncilOverLink(t *testing.T) {
	m := facadeMission(t)
	link := MissionControlLink()
	if link.Delay() != uplink.DefaultDelay {
		t.Errorf("delay = %v", link.Delay())
	}
	council := m.Council(link)
	p, err := council.Propose(time.Hour, "B", "test change")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"A", "D", "E"} {
		if err := council.Vote(time.Hour, p.ID, v, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := council.MissionControlDecision(2*time.Hour, p.ID, true); err != nil {
		t.Fatal(err)
	}
	if p.Status() != support.Approved {
		t.Errorf("status = %v", p.Status())
	}
}

func TestFacadeSurveysCrossValidate(t *testing.T) {
	m := facadeMission(t)
	col, err := m.Surveys()
	if err != nil {
		t.Fatal(err)
	}
	if col.Len() != 6*2 { // days 2..3 for six astronauts
		t.Errorf("responses = %d", col.Len())
	}
	byDay := col.ByDay(survey.Satisfaction)
	for d := 2; d <= 3; d++ {
		if v := byDay[d]; v < 1 || v > 7 {
			t.Errorf("day %d satisfaction = %v", d, v)
		}
	}
}

func TestFullMissionShapeHolds(t *testing.T) {
	// The expensive end-to-end shape check on the complete 14-day mission:
	// this is the single test that pins every headline claim at once.
	if testing.Short() {
		t.Skip("full mission in -short mode")
	}
	m, err := Simulate(Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.Pipeline(TrueAssignment)
	if err != nil {
		t.Fatal(err)
	}
	// Fig 2: kitchen<->office among top passages — covered in benches; here
	// assert the trend and Table I invariants.
	slope, tau := p.SpeechTrend()
	if slope >= 0 || tau >= 0 {
		t.Errorf("speech trend not declining: slope %v tau %v", slope, tau)
	}
	rows := p.TableI()
	for _, r := range rows {
		if r.Name == "C" {
			if !math.IsNaN(r.Company) {
				t.Error("C company not n/a")
			}
			if r.Talking != 1 || r.Walking != 1 {
				t.Errorf("C talking/walking = %v/%v", r.Talking, r.Walking)
			}
		}
	}
}

func TestFailedBadgeStopsRecordingAndReuseContinues(t *testing.T) {
	// Failure injection: F's badge dies on the reuse day; F continues on
	// C's badge. The data must show exactly that.
	if testing.Short() {
		t.Skip("mission simulation in -short mode")
	}
	sc := mission.DefaultScenario(9)
	sc.Days = 9 // past the reuse day (8)
	res, err := mission.Run(mission.Config{Seed: 9, Scenario: sc})
	if err != nil {
		t.Fatal(err)
	}
	day8 := 7 * 24 * time.Hour
	fSeries := res.Dataset.Series(store.BadgeID(mission.BadgeF))
	after := fSeries.Range(day8+10*time.Hour, day8+20*time.Hour)
	if len(after) != 0 {
		t.Errorf("failed badge F recorded %d records on day 8", len(after))
	}
	// C's badge records during day 8 daytime (worn by F).
	cSeries := res.Dataset.Series(store.BadgeID(mission.BadgeC))
	worn := 0
	for _, r := range cSeries.Range(day8, day8+24*time.Hour) {
		if r.Kind == record.KindWear && r.Worn {
			worn++
		}
	}
	if worn == 0 {
		t.Error("C's badge never worn on the reuse day")
	}
}

func TestSharedDatasetRectifiedOnceAcrossViews(t *testing.T) {
	// Regression: building both assignment views over one Simulate run used
	// to re-apply clock corrections to an already-rectified dataset,
	// skewing every timestamp of the second view's analyses. Now each view
	// rectifies once, as it reads; the shared dataset is never rewritten.
	if testing.Short() {
		t.Skip("mission simulation in -short mode")
	}
	m, err := Simulate(Options{Seed: 11, Days: 2})
	if err != nil {
		t.Fatal(err)
	}
	ds := m.Result().Dataset
	// Snapshot the local timestamps of every badge.
	type bounds struct{ first, last time.Duration }
	snap := make(map[store.BadgeID]bounds)
	for _, id := range ds.Badges() {
		f := ds.Series(id).All()[0]
		l, _ := ds.Series(id).Last()
		snap[id] = bounds{f.Local, l.Local}
	}

	truth, err := m.Pipeline(TrueAssignment)
	if err != nil {
		t.Fatal(err)
	}
	cors1, err := truth.RectifyClocks()
	if err != nil {
		t.Fatal(err)
	}
	nominal, err := m.Pipeline(NominalAssignment)
	if err != nil {
		t.Fatal(err)
	}
	cors2, err := nominal.RectifyClocks()
	if err != nil {
		t.Fatal(err)
	}

	// Both views fit the same corrections from the same raw records...
	if len(cors2) != len(cors1) {
		t.Fatalf("correction sets differ: %d vs %d badges", len(cors2), len(cors1))
	}
	for id, c1 := range cors1 {
		if c2 := cors2[id]; c2 != c1 {
			t.Errorf("badge %d: corrections differ: %+v vs %+v", id, c1, c2)
		}
	}
	// ...and the dataset's timestamps are untouched.
	for id, want := range snap {
		f := ds.Series(id).All()[0]
		l, _ := ds.Series(id).Last()
		if f.Local != want.first || l.Local != want.last {
			t.Errorf("badge %d timestamps moved: [%v,%v] -> [%v,%v] (dataset rewritten)",
				id, want.first, want.last, f.Local, l.Local)
		}
	}
	// Both views stay analyzable, and a view built after the other reports
	// exactly what it reports on its own.
	if truth.Transitions(nil).Total() == 0 || nominal.Transitions(nil).Total() == 0 {
		t.Error("a view lost its transitions")
	}
	fresh, err := m.Pipeline(TrueAssignment)
	if err != nil {
		t.Fatal(err)
	}
	if truth.Report() != fresh.Report() {
		t.Error("a second pipeline over the shared dataset reports differently")
	}
}
