package support

import (
	"errors"
	"testing"
	"time"

	"icares/internal/habitat"
	"icares/internal/record"
	"icares/internal/store"
	"icares/internal/uplink"
)

func accelRec(at time.Duration, dev int16) record.Record {
	return record.Record{Local: at, Kind: record.KindAccel, AX: dev, AY: 0, AZ: 1000}
}

func wearRec(at time.Duration, worn bool) record.Record {
	return record.Record{Local: at, Kind: record.KindWear, Worn: worn}
}

func TestInactivityDetector(t *testing.T) {
	d := NewDaemon()
	det := NewInactivityDetector()
	d.Register(det)
	d.Ingest(0, "A", 1, wearRec(0, true))
	// Movement for 10 minutes, then stillness.
	for at := time.Duration(0); at < 10*time.Minute; at += 10 * time.Second {
		d.Ingest(at, "A", 1, accelRec(at, 200))
	}
	for at := 10 * time.Minute; at < 50*time.Minute; at += 10 * time.Second {
		d.Ingest(at, "A", 1, accelRec(at, 3))
	}
	alerts := d.AlertsOfKind("inactivity")
	if len(alerts) != 1 {
		t.Fatalf("inactivity alerts = %d (%v)", len(alerts), alerts)
	}
	if alerts[0].Severity != Critical || alerts[0].Subject != "A" {
		t.Errorf("alert = %+v", alerts[0])
	}
	// Movement resumes: a new stillness period can alert again.
	d.Ingest(50*time.Minute, "A", 1, accelRec(50*time.Minute, 200))
	for at := 50 * time.Minute; at < 90*time.Minute; at += 10 * time.Second {
		d.Ingest(at, "A", 1, accelRec(at, 3))
	}
	if got := len(d.AlertsOfKind("inactivity")); got != 2 {
		t.Errorf("alerts after recovery = %d", got)
	}
}

func TestInactivityIgnoresUnwornBadge(t *testing.T) {
	d := NewDaemon()
	d.Register(NewInactivityDetector())
	d.Ingest(0, "A", 1, wearRec(0, false))
	for at := time.Duration(0); at < 2*time.Hour; at += 10 * time.Second {
		d.Ingest(at, "A", 1, accelRec(at, 1))
	}
	if got := len(d.AlertsOfKind("inactivity")); got != 0 {
		t.Errorf("alerts for unworn badge = %d", got)
	}
}

func TestQuietCrewDetector(t *testing.T) {
	d := NewDaemon()
	d.Register(NewQuietCrewDetector())
	mic := func(at time.Duration, speech bool) record.Record {
		r := record.Record{Local: at, Kind: record.KindMic}
		if speech {
			r.SpeechDetected = true
			r.LoudnessDB = 68
			r.SpeechFraction = 0.5
		} else {
			r.LoudnessDB = 35
		}
		return r
	}
	// 6 hours of lively conversation (~40% speech).
	at := time.Duration(0)
	i := 0
	for ; at < 6*time.Hour; at += 15 * time.Second {
		d.Ingest(at, "A", 1, mic(at, i%5 < 2))
		i++
	}
	if got := len(d.AlertsOfKind("quiet-crew")); got != 0 {
		t.Fatalf("alerts during lively phase = %d: %v", got, d.AlertsOfKind("quiet-crew"))
	}
	// Sudden silence (the day-11 signature).
	for ; at < 12*time.Hour; at += 15 * time.Second {
		d.Ingest(at, "A", 1, mic(at, false))
	}
	if got := len(d.AlertsOfKind("quiet-crew")); got == 0 {
		t.Error("silence never flagged")
	}
}

func TestBatteryDetector(t *testing.T) {
	d := NewDaemon()
	d.Register(NewBatteryDetector())
	bat := func(at time.Duration, pct float32) record.Record {
		return record.Record{Local: at, Kind: record.KindBattery, BatteryPct: pct}
	}
	d.Ingest(0, "B", 2, bat(0, 80))
	d.Ingest(time.Hour, "B", 2, bat(time.Hour, 15))
	d.Ingest(2*time.Hour, "B", 2, bat(2*time.Hour, 12)) // no duplicate alert
	alerts := d.AlertsOfKind("battery")
	if len(alerts) != 1 {
		t.Fatalf("battery alerts = %d", len(alerts))
	}
	// Recharged, then low again: alerts again.
	d.Ingest(3*time.Hour, "B", 2, bat(3*time.Hour, 90))
	d.Ingest(4*time.Hour, "B", 2, bat(4*time.Hour, 10))
	if got := len(d.AlertsOfKind("battery")); got != 2 {
		t.Errorf("battery alerts after recharge = %d", got)
	}
}

func TestHydrationDetector(t *testing.T) {
	hab := habitat.Standard()
	var kitchenBeacon, officeBeacon uint16
	for _, s := range hab.Beacons() {
		if s.Room == habitat.Kitchen && kitchenBeacon == 0 {
			kitchenBeacon = uint16(s.ID)
		}
		if s.Room == habitat.Office && officeBeacon == 0 {
			officeBeacon = uint16(s.ID)
		}
	}
	d := NewDaemon()
	d.Register(NewHydrationDetector(hab, 3*time.Hour))
	obs := func(at time.Duration, beacon uint16) record.Record {
		return record.Record{Local: at, Kind: record.KindBeacon, PeerID: beacon, RSSI: -60}
	}
	// A visits the kitchen at t=0, then stays in the office for 4 h.
	d.Ingest(0, "A", 1, obs(0, kitchenBeacon))
	for at := 15 * time.Second; at < 4*time.Hour; at += 15 * time.Second {
		d.Ingest(at, "A", 1, obs(at, officeBeacon))
	}
	alerts := d.AlertsOfKind("hydration")
	if len(alerts) != 1 {
		t.Fatalf("hydration alerts = %d", len(alerts))
	}
	if alerts[0].Subject != "A" || alerts[0].Severity != Info {
		t.Errorf("alert = %+v", alerts[0])
	}
}

func TestWearComplianceDetector(t *testing.T) {
	d := NewDaemon()
	d.Register(NewWearComplianceDetector())
	base := 9 * time.Hour // duty hours
	d.Ingest(base, "E", 5, wearRec(base, true))
	d.Ingest(base+time.Hour, "E", 5, wearRec(base+time.Hour, false))
	// Ticks to trigger sweeps while unworn.
	for at := base + time.Hour; at < base+4*time.Hour; at += time.Minute {
		d.Ingest(at, "E", 5, record.Record{Local: at, Kind: record.KindEnv})
	}
	alerts := d.AlertsOfKind("wear-compliance")
	if len(alerts) != 1 {
		t.Fatalf("compliance alerts = %d", len(alerts))
	}
}

func TestWearComplianceIgnoresOvernightDock(t *testing.T) {
	d := NewDaemon()
	d.Register(NewWearComplianceDetector())
	// Badge comes off at 22:00 (dock) and the daemon keeps sweeping
	// through the night and next morning: no nagging.
	off := 22 * time.Hour
	d.Ingest(off, "E", 5, wearRec(off, false))
	for at := off; at < off+11*time.Hour; at += 10 * time.Minute {
		d.Ingest(at, "E", 5, record.Record{Local: at, Kind: record.KindEnv})
	}
	if got := len(d.AlertsOfKind("wear-compliance")); got != 0 {
		t.Errorf("overnight dock alerts = %d", got)
	}
}

func TestPrivacyGuardSuppressesMicAndIR(t *testing.T) {
	d := NewDaemon()
	det := NewQuietCrewDetector()
	d.Register(det)
	d.Privacy().Suppress("A", 0, time.Hour)
	mic := record.Record{Local: time.Minute, Kind: record.KindMic, SpeechDetected: true, LoudnessDB: 70, SpeechFraction: 0.5}
	d.Ingest(time.Minute, "A", 1, mic)
	if len(det.frames) != 0 {
		t.Error("suppressed mic frame reached a detector")
	}
	// Movement records still flow (safety).
	inact := NewInactivityDetector()
	d.Register(inact)
	d.Ingest(2*time.Minute, "A", 1, wearRec(2*time.Minute, true))
	if !inact.worn["A"] {
		t.Error("wear record blocked by privacy window")
	}
	// Outside the window, mic flows again.
	mic.Local = 2 * time.Hour
	d.Ingest(2*time.Hour, "A", 1, mic)
	if len(det.frames) != 1 {
		t.Error("mic frame outside window suppressed")
	}
	if got := d.privacy.windows["A"].Total(); got != time.Hour {
		t.Errorf("windows total = %v", got)
	}
}

func TestHealthRegistry(t *testing.T) {
	h := NewHealthRegistry()
	h.Seen(1, time.Minute)
	h.Seen(2, 2*time.Minute)
	h.Seen(1, 30*time.Second) // older: ignored
	if at, ok := h.lastSeen[1]; !ok || at != time.Minute {
		t.Errorf("last seen = %v, %v", at, ok)
	}
	stale := h.Stale(40*time.Minute, 30*time.Minute)
	if len(stale) != 2 {
		t.Fatalf("stale = %v", stale)
	}
	if got := h.Stale(10*time.Minute, 30*time.Minute); len(got) != 0 {
		t.Errorf("fresh badges stale: %v", got)
	}
}

func TestBadgePoolAssignRelease(t *testing.T) {
	p := NewBadgePool([]store.BadgeID{8, 9})
	if p.Free() != 2 {
		t.Fatalf("free = %d", p.Free())
	}
	id, err := p.Assign(time.Hour, "F", "badge 6 failed")
	if err != nil || id != 8 {
		t.Fatalf("assign = %d, %v", id, err)
	}
	if w, ok := p.WearerOf(8); !ok || w != "F" {
		t.Errorf("wearer = %q, %v", w, ok)
	}
	if _, err := p.Assign(time.Hour, "D", "x"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Assign(time.Hour, "E", "x"); !errors.Is(err, ErrPoolEmpty) {
		t.Errorf("empty pool: %v", err)
	}
	if err := p.Release(2*time.Hour, 8, "repaired"); err != nil {
		t.Fatal(err)
	}
	if p.Free() != 1 {
		t.Errorf("free after release = %d", p.Free())
	}
	if err := p.Release(2*time.Hour, 8, "again"); !errors.Is(err, ErrNotAssigned) {
		t.Errorf("double release: %v", err)
	}
	// Two assigns and one release are logged; the failed assign is not.
	if got := len(p.Log()); got != 3 {
		t.Errorf("audit log = %d entries", got)
	}
}

func TestFailoverReplacesSilentBadge(t *testing.T) {
	d := NewDaemon()
	pool := NewBadgePool([]store.BadgeID{8})
	wearers := map[store.BadgeID]string{6: "F"}
	fo := NewFailover(d.Health(), pool, func(id store.BadgeID) (string, bool) {
		w, ok := wearers[id]
		return w, ok
	})
	d.Register(fo)
	// Badge 6 alive at t=0, then silent; badge 1 keeps ticking the daemon.
	d.Ingest(0, "F", 6, wearRec(0, true))
	for at := time.Minute; at < 2*time.Hour; at += time.Minute {
		d.Ingest(at, "A", 1, record.Record{Local: at, Kind: record.KindEnv})
	}
	alerts := d.AlertsOfKind("failover")
	if len(alerts) != 1 {
		t.Fatalf("failover alerts = %d: %v", len(alerts), alerts)
	}
	if alerts[0].Subject != "F" {
		t.Errorf("failover subject = %q", alerts[0].Subject)
	}
	if w, ok := pool.WearerOf(8); !ok || w != "F" {
		t.Errorf("spare assignment = %q, %v", w, ok)
	}
}

func TestFailoverPoolExhausted(t *testing.T) {
	d := NewDaemon()
	pool := NewBadgePool(nil)
	wearers := map[store.BadgeID]string{6: "F"}
	fo := NewFailover(d.Health(), pool, func(id store.BadgeID) (string, bool) {
		w, ok := wearers[id]
		return w, ok
	})
	d.Register(fo)
	d.Ingest(0, "F", 6, wearRec(0, true))
	for at := time.Minute; at < 2*time.Hour; at += time.Minute {
		d.Ingest(at, "A", 1, record.Record{Local: at, Kind: record.KindEnv})
	}
	alerts := d.AlertsOfKind("failover")
	if len(alerts) != 1 || alerts[0].Severity != Critical {
		t.Fatalf("exhausted-pool alerts = %v", alerts)
	}
}

func TestCouncilApproval(t *testing.T) {
	crew := []string{"A", "B", "D", "E", "F"}
	link := uplink.NewLink(20 * time.Minute)
	c := NewCouncil(crew, link)
	p, err := c.Propose(0, "B", "raise mic sampling to 30s cadence")
	if err != nil {
		t.Fatal(err)
	}
	if p.Status() != Pending {
		t.Fatalf("status = %v", p.Status())
	}
	// Crew majority: B(yes) + A + D = 3 of 5.
	if err := c.Vote(time.Minute, p.ID, "A", true); err != nil {
		t.Fatal(err)
	}
	if err := c.Vote(2*time.Minute, p.ID, "D", true); err != nil {
		t.Fatal(err)
	}
	// Still pending: mission control hasn't decided.
	if p.Status() != Pending {
		t.Fatalf("status before MC = %v", p.Status())
	}
	// The proposal travelled over the link to mission control.
	if got := link.Receive(uplink.MissionControl, 25*time.Minute); len(got) != 1 {
		t.Fatalf("MC inbox = %d", len(got))
	}
	if err := c.MissionControlDecision(45*time.Minute, p.ID, true); err != nil {
		t.Fatal(err)
	}
	if p.Status() != Approved {
		t.Fatalf("status = %v", p.Status())
	}
	if p.decidedAt != 45*time.Minute {
		t.Errorf("decided at %v", p.decidedAt)
	}
	// Voting after the decision fails.
	if err := c.Vote(time.Hour, p.ID, "E", true); !errors.Is(err, ErrDecided) {
		t.Errorf("vote after decision: %v", err)
	}
}

func TestCouncilRejections(t *testing.T) {
	crew := []string{"A", "B", "D", "E", "F"}
	c := NewCouncil(crew, uplink.NewLink(time.Minute))
	// MC veto.
	p, err := c.Propose(0, "B", "disable IR sensing")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.MissionControlDecision(time.Hour, p.ID, false); err != nil {
		t.Fatal(err)
	}
	if p.Status() != Rejected {
		t.Errorf("MC veto: %v", p.Status())
	}
	// Crew majority rejection.
	p2, err := c.Propose(0, "F", "turn off all sensors at night")
	if err != nil {
		t.Fatal(err)
	}
	for _, voter := range []string{"A", "B", "D"} {
		if err := c.Vote(time.Minute, p2.ID, voter, false); err != nil {
			t.Fatal(err)
		}
	}
	if p2.Status() != Rejected {
		t.Errorf("crew rejection: %v", p2.Status())
	}
}

func TestCouncilValidation(t *testing.T) {
	c := NewCouncil([]string{"A", "B"}, nil)
	if _, err := c.Propose(0, "Z", "x"); !errors.Is(err, ErrNotCrew) {
		t.Errorf("outsider proposal: %v", err)
	}
	if err := c.Vote(0, 99, "A", true); !errors.Is(err, ErrUnknownProposal) {
		t.Errorf("unknown proposal: %v", err)
	}
	p, err := c.Propose(0, "A", "x")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Vote(0, p.ID, "Z", true); !errors.Is(err, ErrNotCrew) {
		t.Errorf("outsider vote: %v", err)
	}
	if _, err := c.Proposal(p.ID); err != nil {
		t.Errorf("lookup: %v", err)
	}
	if _, err := c.Proposal(42); !errors.Is(err, ErrUnknownProposal) {
		t.Errorf("missing lookup: %v", err)
	}
}

func TestCouncilAutonomousMode(t *testing.T) {
	// Without a link (communication blackout) mission-control assent is
	// implied, so a crew majority suffices.
	crew := []string{"A", "B", "D"}
	c := NewCouncil(crew, nil)
	p, err := c.Propose(0, "A", "boost alert volume")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Vote(time.Minute, p.ID, "B", true); err != nil {
		t.Fatal(err)
	}
	if p.Status() != Approved {
		t.Errorf("autonomous approval: %v", p.Status())
	}
}

func TestSeverityAndStatusStrings(t *testing.T) {
	if Info.String() != "info" || Warning.String() != "warning" || Critical.String() != "critical" {
		t.Error("severity names")
	}
	if Severity(9).String() != "severity(9)" {
		t.Error("unknown severity")
	}
	if Pending.String() != "pending" || Approved.String() != "approved" || Rejected.String() != "rejected" {
		t.Error("status names")
	}
	if ProposalStatus(9).String() != "status(9)" {
		t.Error("unknown status")
	}
}

func TestDaemonAlertSubscription(t *testing.T) {
	d := NewDaemon()
	d.Register(NewBatteryDetector())
	var got []Alert
	d.OnAlert(func(a Alert) { got = append(got, a) })
	d.Ingest(0, "B", 2, record.Record{Local: 0, Kind: record.KindBattery, BatteryPct: 5})
	if len(got) != 1 {
		t.Errorf("subscriber got %d alerts", len(got))
	}
}

func TestInactivityToleratesIngestionGap(t *testing.T) {
	d := NewDaemon()
	det := NewInactivityDetector()
	d.Register(det)
	d.Ingest(0, "A", 1, wearRec(0, true))
	// Movement, then stillness for 10 min — well under MaxStill.
	d.Ingest(0, "A", 1, accelRec(0, 200))
	for at := 10 * time.Second; at < 10*time.Minute; at += 10 * time.Second {
		d.Ingest(at, "A", 1, accelRec(at, 3))
	}
	// A 3-hour ingestion gap (RF outage, gateway restart): no records at
	// all. Sweeps during the gap must not read the silence as stillness.
	for at := 10 * time.Minute; at < 3*time.Hour; at += 10 * time.Minute {
		d.Sweep(at)
	}
	if got := len(d.AlertsOfKind("inactivity")); got != 0 {
		t.Fatalf("false inactivity alerts during ingestion gap: %d", got)
	}
	// The stream resumes with still-but-present records: the detector must
	// re-baseline instead of alerting off the stale pre-gap movement clock.
	resume := 3 * time.Hour
	for at := resume; at < resume+10*time.Minute; at += 10 * time.Second {
		d.Ingest(at, "A", 1, accelRec(at, 3))
	}
	if got := len(d.AlertsOfKind("inactivity")); got != 0 {
		t.Fatalf("false inactivity alert right after gap: %d", got)
	}
	// Genuine post-gap stillness must still fire once MaxStill accumulates
	// on fresh data.
	for at := resume + 10*time.Minute; at < resume+45*time.Minute; at += 10 * time.Second {
		d.Ingest(at, "A", 1, accelRec(at, 3))
	}
	alerts := d.AlertsOfKind("inactivity")
	if len(alerts) != 1 {
		t.Fatalf("post-gap stillness alerts = %d (%v)", len(alerts), alerts)
	}
	if alerts[0].At < resume+30*time.Minute {
		t.Errorf("alert at %v, before MaxStill of fresh post-gap data", alerts[0].At)
	}
}

func TestReplayerGateWithholdsRecords(t *testing.T) {
	ds := store.NewDataset()
	s := ds.Series(1)
	for at := time.Duration(0); at < time.Hour; at += time.Minute {
		s.Append(accelRec(at, 100))
	}
	d := NewDaemon()
	r := NewReplayer(d, ds, nil)
	r.Gate = func(_ store.BadgeID, at time.Duration) bool {
		return at < 30*time.Minute // outage in the second half-hour
	}
	n := r.Run(0, time.Hour)
	if n != 30 {
		t.Errorf("ingested %d records, want 30", n)
	}
	if r.Withheld() != 30 {
		t.Errorf("withheld %d records, want 30", r.Withheld())
	}
}
