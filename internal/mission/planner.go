package mission

import (
	"hash/fnv"
	"strconv"
	"time"

	"icares/internal/crew"
	"icares/internal/habitat"
	"icares/internal/simtime"
)

// Daily timetable (times of day). The mission regulated 14 h of daytime
// with two 30-minute breaks and 1.5 h of meals, in 30-minute slots.
const (
	wakeTime      = 8 * time.Hour
	breakfastTime = 8 * time.Hour
	morningBreak  = 10*time.Hour + 30*time.Minute
	lunchTime     = 12*time.Hour + 30*time.Minute
	afternoonBrk  = 15 * time.Hour
	dinnerTime    = 19 * time.Hour
	briefingTime  = 21*time.Hour + 30*time.Minute
	sleepTime     = 22 * time.Hour

	mealLen  = 30 * time.Minute
	breakLen = 30 * time.Minute
)

// Event windows.
const (
	// consolationStart/End bound the unplanned day-4 gathering in the
	// kitchen at ~15:20 after C's death (Fig. 5).
	consolationStart = 15*time.Hour + 20*time.Minute
	consolationEnd   = 16*time.Hour + 10*time.Minute
	// evaStart/End bound the afternoon EVA window (prep 12:30, EVA
	// 13:00-15:00, post until 15:30).
	evaPrepStart = 12*time.Hour + 30*time.Minute
	evaStart     = 13 * time.Hour
	evaEnd       = 15 * time.Hour
	evaPostEnd   = 15*time.Hour + 30*time.Minute
)

// Scenario holds the mission-level behavioural script.
type Scenario struct {
	// Seed decorrelates the planner's deterministic hashing across runs.
	Seed uint64
	// Days is the mission length (ICAres-1: 14).
	Days int
	// FoodShortageDay and ReprimandDay are the near-silent days (11, 12).
	FoodShortageDay int
	ReprimandDay    int
	// DeathDay is when C leaves (4).
	DeathDay int
	// EVADays maps mission day -> the two astronauts on EVA that day.
	EVADays map[int][2]string
	// WearStart/WearEnd bound the linear wear-compliance decay (the paper:
	// ~80% early to ~50% late).
	WearStart, WearEnd float64
	// TalkStart/TalkEnd bound the linear decline in conversation
	// propensity (Fig. 6), with the shortage/reprimand days dropping to
	// QuietFactor of trend.
	TalkStart, TalkEnd float64
	QuietFactor        float64
}

// DefaultScenario returns the ICAres-1 script.
func DefaultScenario(seed uint64) Scenario {
	return Scenario{
		Seed:            seed,
		Days:            14,
		FoodShortageDay: 11,
		ReprimandDay:    12,
		DeathDay:        4,
		EVADays: map[int][2]string{
			3:  {AstronautC, AstronautF},
			5:  {AstronautD, AstronautE},
			6:  {AstronautB, AstronautF},
			8:  {AstronautA, AstronautD},
			9:  {AstronautE, AstronautF},
			10: {AstronautB, AstronautD},
			13: {AstronautA, AstronautF},
		},
		WearStart: 0.77, WearEnd: 0.42,
		TalkStart: 1.0, TalkEnd: 0.5,
		QuietFactor: 0.15,
	}
}

// TalkTrend returns the mission-level conversation multiplier for a day.
func (sc Scenario) TalkTrend(day int) float64 {
	if sc.Days <= 2 {
		return sc.TalkStart
	}
	frac := float64(day-2) / float64(sc.Days-2)
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	trend := sc.TalkStart + (sc.TalkEnd-sc.TalkStart)*frac
	if day == sc.FoodShortageDay || day == sc.ReprimandDay {
		trend *= sc.QuietFactor
	}
	return trend
}

// WearProb returns the probability a crew member bothers to wear the badge
// during a wearable slot on the given day.
func (sc Scenario) WearProb(day int) float64 {
	if sc.Days <= 2 {
		return sc.WearStart
	}
	frac := float64(day-2) / float64(sc.Days-2)
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return sc.WearStart + (sc.WearEnd-sc.WearStart)*frac
}

// hash gives a deterministic uniform float in [0,1) from scenario seed and
// string keys.
func (sc Scenario) hash(keys ...string) float64 {
	h := fnv.New64a()
	var b [8]byte
	for i := uint64(0); i < 8; i++ {
		b[i] = byte(sc.Seed >> (8 * i))
	}
	_, _ = h.Write(b[:])
	for _, k := range keys {
		_, _ = h.Write([]byte(k))
		_, _ = h.Write([]byte{0})
	}
	return float64(h.Sum64()>>11) / (1 << 53)
}

// Planner implements crew.Planner for the ICAres-1 script.
type Planner struct {
	sc Scenario
}

// NewPlanner builds the planner for a scenario.
func NewPlanner(sc Scenario) *Planner {
	return &Planner{sc: sc}
}

var _ crew.Planner = (*Planner)(nil)

// Objective implements crew.Planner.
func (p *Planner) Objective(name string, now time.Duration) crew.Objective {
	day := simtime.DayOf(now)
	tod := simtime.TimeOfDay(now)
	sc := p.sc

	// C is dead from day 4, 15:00.
	if name == AstronautC && now >= DeathTime() {
		return crew.Objective{Kind: crew.Dead}
	}

	// Night.
	if tod < wakeTime || tod >= sleepTime {
		return crew.Objective{Kind: crew.Sleep, Room: habitat.Bedroom}
	}

	trend := sc.TalkTrend(day)

	// Day-4 consolation gathering (everyone, kitchen, sombre and quiet).
	if day == sc.DeathDay && tod >= consolationStart && tod < consolationEnd {
		return crew.Objective{
			Kind: crew.Gathering, Room: habitat.Kitchen,
			TalkScale: 0.45 * trend, LoudnessOffset: -9, Wearable: true,
		}
	}

	// EVA window.
	if pair, ok := sc.EVADays[day]; ok && (name == pair[0] || name == pair[1]) {
		switch {
		case tod >= evaPrepStart && tod < evaStart:
			return crew.Objective{
				Kind: crew.Work, Room: habitat.Airlock,
				TalkScale: 0.3 * trend, Wearable: true, Anchored: false,
			}
		case tod >= evaStart && tod < evaEnd:
			return crew.Objective{Kind: crew.EVA}
		case tod >= evaEnd && tod < evaPostEnd:
			return crew.Objective{
				Kind: crew.Work, Room: habitat.Airlock,
				TalkScale: 0.3 * trend, Wearable: true, Anchored: false,
			}
		}
	}

	// Meals.
	if within(tod, breakfastTime, mealLen) || within(tod, lunchTime, mealLen) || within(tod, dinnerTime, mealLen) {
		return crew.Objective{
			Kind: crew.Meal, Room: habitat.Kitchen,
			TalkScale: 1.0 * trend, Wearable: true,
		}
	}

	// Briefing (whole crew, office).
	if within(tod, briefingTime, 30*time.Minute) {
		return crew.Objective{
			Kind: crew.Briefing, Room: habitat.Office,
			TalkScale: 0.7 * trend, Wearable: true,
		}
	}

	// Breaks: pairs gather by affinity (A-F together most days; D-E apart).
	if within(tod, morningBreak, breakLen) || within(tod, afternoonBrk, breakLen) {
		return p.breakObjective(name, day, tod, trend)
	}

	// Restroom micro-visit: one ~5-minute visit per 4-hour work window at
	// a hashed offset. Badges are not worn in restrooms.
	windowIdx := int(tod / (4 * time.Hour))
	off := time.Duration(p.sc.hash(name, "restroom", itoa(day), itoa(windowIdx)) * float64(4*time.Hour-5*time.Minute))
	winStart := time.Duration(windowIdx) * 4 * time.Hour
	if tod >= winStart+off && tod < winStart+off+5*time.Minute {
		return crew.Objective{
			Kind: crew.Restroom, Room: habitat.Restroom,
			TalkScale: 0, Wearable: false,
		}
	}

	// Gym: every other evening, one 30-minute slot 20:00-21:30, hashed.
	if tod >= 20*time.Hour && tod < briefingTime {
		slot := int((tod - 20*time.Hour) / (30 * time.Minute))
		pick := int(p.sc.hash(name, "gym", itoa(day)) * 3)
		goes := p.sc.hash(name, "gymday", itoa(day)) < 0.5
		if goes && slot == pick {
			return crew.Objective{
				Kind: crew.Gym, Room: habitat.Gym,
				TalkScale: 0.1 * trend, Wearable: false,
			}
		}
	}

	// Work.
	return p.workObjective(name, day, tod, trend)
}

// breakObjective sends members to social rooms during breaks, with the A-F
// pair usually together and D-E usually apart.
func (p *Planner) breakObjective(name string, day int, tod time.Duration, trend float64) crew.Objective {
	rooms := []habitat.RoomID{habitat.Kitchen, habitat.Atrium, habitat.Bedroom}
	slotKey := itoa(int(tod / (30 * time.Minute)))
	var room habitat.RoomID
	switch name {
	case AstronautA, AstronautF:
		// A and F take breaks together ~75% of the time.
		if p.sc.hash("AF-break", itoa(day), slotKey) < 0.55 {
			room = rooms[int(p.sc.hash("AF-room", itoa(day), slotKey)*3)]
		} else {
			room = rooms[int(p.sc.hash(name, "break", itoa(day), slotKey)*3)]
		}
	case AstronautB:
		// The commander "cooperated, supervised, and kept company with the
		// crew": B joins the A-F social hub during breaks.
		if p.sc.hash("AF-break", itoa(day), slotKey) < 0.55 {
			room = rooms[int(p.sc.hash("AF-room", itoa(day), slotKey)*3)]
		} else {
			room = rooms[int(p.sc.hash(name, "break", itoa(day), slotKey)*3)]
		}
	case AstronautD:
		room = rooms[int(p.sc.hash(name, "break", itoa(day), slotKey)*3)]
	case AstronautE:
		// E avoids whichever room D picked (reserved, D-E distant).
		dRoom := rooms[int(p.sc.hash(AstronautD, "break", itoa(day), slotKey)*3)]
		room = rooms[(indexOf(rooms, dRoom)+1)%len(rooms)]
	default:
		room = rooms[int(p.sc.hash(name, "break", itoa(day), slotKey)*3)]
	}
	return crew.Objective{
		Kind: crew.Break, Room: room,
		TalkScale: 0.8 * trend, Wearable: true,
	}
}

func indexOf(rooms []habitat.RoomID, r habitat.RoomID) int {
	for i, v := range rooms {
		if v == r {
			return i
		}
	}
	return 0
}

// workObjective assigns role-based work rooms and the hydration side-trip
// behaviour that produces Fig. 2's dominant office<->kitchen transitions.
func (p *Planner) workObjective(name string, day int, tod time.Duration, trend float64) crew.Objective {
	obj := crew.Objective{
		Kind: crew.Work, TalkScale: 0.22 * trend, Wearable: true, Anchored: true,
	}
	halfDay := 0
	if tod >= 13*time.Hour {
		halfDay = 1
	}
	switch name {
	case AstronautA:
		// Impaired scientist: office documents in the mornings, biolab
		// samples early afternoon, then assisting F in the workshop (the
		// pair's long private contact).
		switch {
		case halfDay == 0:
			obj.Room = habitat.Office
		case tod < 16*time.Hour:
			obj.Room = habitat.Office // solo documentation block
		case tod < 17*time.Hour+30*time.Minute:
			obj.Room = habitat.Storage // sample inventory work
		default:
			obj.Room = habitat.Workshop
		}
	case AstronautB:
		// Commander: office paperwork in the mornings (with A), afternoon
		// supervision stints rotating through the crew's work rooms — what
		// makes B "the person who was the most central and available to
		// the others" (Table I).
		if halfDay == 0 {
			obj.Room = habitat.Office
			obj.SideTripRoom = habitat.Kitchen
			obj.SideTripProb = 1.1e-4
		} else {
			stints := []habitat.RoomID{habitat.Biolab, habitat.Workshop, habitat.Storage, habitat.Office}
			obj.Room = stints[int(tod/time.Hour)%len(stints)]
		}
	case AstronautC:
		// Energetic: alternates workshop and biolab.
		if halfDay == 0 {
			obj.Room = habitat.Workshop
		} else {
			obj.Room = habitat.Biolab
		}
	case AstronautD:
		// Medical officer: short biolab sessions (~40 min) between longer
		// storage periods — biolab stays run about half the length of
		// office/workshop stays without flooding the transition matrix.
		if tod%(100*time.Minute) < 40*time.Minute {
			obj.Room = habitat.Biolab
		} else {
			obj.Room = habitat.Storage
		}
	case AstronautE:
		// Reserved analyst: mostly storage, with biolab sessions phased
		// to never overlap D's (the crew's most distant pair).
		if tod%(100*time.Minute) >= 60*time.Minute {
			obj.Room = habitat.Biolab
		} else {
			obj.Room = habitat.Storage
		}
	case AstronautF:
		// Structural material scientist: workshop all day.
		obj.Room = habitat.Workshop
	default:
		obj.Room = habitat.Office
	}

	// Hydration runs: people absorbed in office/workshop work forget to
	// drink and dash to the kitchen (the paper's explanation of Fig. 2).
	if obj.SideTripRoom == habitat.NoRoom {
		switch obj.Room {
		case habitat.Office:
			obj.SideTripRoom = habitat.Kitchen
			obj.SideTripProb = 0.9e-4
		case habitat.Workshop:
			obj.SideTripRoom = habitat.Kitchen
			obj.SideTripProb = 0.5e-4
		case habitat.Biolab:
			obj.SideTripRoom = habitat.Kitchen
			obj.SideTripProb = 0.25e-4
		}
	}
	return obj
}

// within reports whether tod falls in [start, start+length).
func within(tod, start, length time.Duration) bool {
	return tod >= start && tod < start+length
}

func itoa(v int) string { return strconv.Itoa(v) }
