package speech

import (
	"testing"
	"time"

	"icares/internal/record"
	"icares/internal/simtime"
)

// frames runs the detection rule over a record slice.
func frames(recs []record.Record, cfg Config) []Frame {
	c := record.NewCursor(recs)
	return FramesCursor(&c, cfg)
}

func micRec(at time.Duration, loud, f0, frac float64) record.Record {
	return record.Record{
		Local: at, Kind: record.KindMic,
		SpeechDetected: frac > 0,
		LoudnessDB:     float32(loud),
		FundamentalHz:  float32(f0),
		SpeechFraction: float32(frac),
	}
}

func TestFramesApplyPaperRule(t *testing.T) {
	cfg := DefaultConfig()
	tests := []struct {
		name string
		rec  record.Record
		want bool
	}{
		{"loud and long", micRec(0, 65, 140, 0.5), true},
		{"exactly at thresholds", micRec(0, 60, 140, 0.2), true},
		{"too quiet", micRec(0, 55, 140, 0.5), false},
		{"too brief", micRec(0, 70, 140, 0.1), false},
		{"silence", micRec(0, 35, 0, 0), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			fs := frames([]record.Record{tt.rec}, cfg)
			if len(fs) != 1 {
				t.Fatalf("frames = %d", len(fs))
			}
			if fs[0].Speech != tt.want {
				t.Errorf("speech = %v, want %v", fs[0].Speech, tt.want)
			}
		})
	}
}

func TestFramesIgnoreOtherKinds(t *testing.T) {
	recs := []record.Record{
		{Local: 0, Kind: record.KindAccel},
		micRec(15*time.Second, 70, 140, 0.6),
	}
	if got := len(frames(recs, DefaultConfig())); got != 1 {
		t.Errorf("frames = %d", got)
	}
}

func TestFractionAndFilterWorn(t *testing.T) {
	var recs []record.Record
	for i := 0; i < 10; i++ {
		loud, frac := 35.0, 0.0
		if i < 4 {
			loud, frac = 70, 0.6
		}
		recs = append(recs, micRec(time.Duration(i*15)*time.Second, loud, 140, frac))
	}
	frames := frames(recs, DefaultConfig())
	if f := Fraction(frames); f != 0.4 {
		t.Errorf("fraction = %v", f)
	}
	worn := record.RangeSet{{From: 0, To: 60 * time.Second}}
	kept := FilterWorn(frames, worn)
	if len(kept) != 4 {
		t.Errorf("worn frames = %d", len(kept))
	}
	if Fraction(nil) != 0 {
		t.Error("empty fraction nonzero")
	}
}

func TestFractionByDay(t *testing.T) {
	var recs []record.Record
	day2 := simtime.StartOfDay(2)
	day3 := simtime.StartOfDay(3)
	for i := 0; i < 4; i++ {
		recs = append(recs, micRec(day2+time.Duration(i*15)*time.Second, 70, 140, 0.5))
		recs = append(recs, micRec(day3+time.Duration(i*15)*time.Second, 35, 0, 0))
	}
	got := FractionByDay(frames(recs, DefaultConfig()))
	if got[2] != 1 || got[3] != 0 {
		t.Errorf("by day = %v", got)
	}
}

func TestClassifyGender(t *testing.T) {
	tests := []struct {
		f0   float64
		want Gender
	}{
		{120, GenderMale},
		{210, GenderFemale},
		{GenderBoundaryHz, GenderFemale},
		{0, GenderUnknown},
		{-5, GenderUnknown},
	}
	for _, tt := range tests {
		if got := ClassifyGender(tt.f0); got != tt.want {
			t.Errorf("ClassifyGender(%v) = %v, want %v", tt.f0, got, tt.want)
		}
	}
	if GenderMale.String() != "male" || GenderFemale.String() != "female" || GenderUnknown.String() != "unknown" {
		t.Error("gender names wrong")
	}
}

func TestAttributeSpeaker(t *testing.T) {
	profiles := map[string]float64{"A": 208, "B": 122, "C": 136}
	if who, ok := AttributeSpeaker(125, profiles, 20); !ok || who != "B" {
		t.Errorf("125 Hz -> %q, %v", who, ok)
	}
	if who, ok := AttributeSpeaker(205, profiles, 20); !ok || who != "A" {
		t.Errorf("205 Hz -> %q, %v", who, ok)
	}
	// A synthetic screen-reader voice far from every profile.
	if _, ok := AttributeSpeaker(300, profiles, 20); ok {
		t.Error("attributed an unknown voice")
	}
	if _, ok := AttributeSpeaker(0, profiles, 20); ok {
		t.Error("attributed silence")
	}
	if _, ok := AttributeSpeaker(140, nil, 20); ok {
		t.Error("attributed with no profiles")
	}
}

func TestTalkingFrames(t *testing.T) {
	profiles := map[string]float64{"A": 208, "B": 122}
	var recs []record.Record
	// 3 frames of A's voice, 2 of B's, 5 silent.
	for i := 0; i < 3; i++ {
		recs = append(recs, micRec(time.Duration(i*15)*time.Second, 70, 208, 0.5))
	}
	for i := 3; i < 5; i++ {
		recs = append(recs, micRec(time.Duration(i*15)*time.Second, 70, 122, 0.5))
	}
	for i := 5; i < 10; i++ {
		recs = append(recs, micRec(time.Duration(i*15)*time.Second, 35, 0, 0))
	}
	frames := frames(recs, DefaultConfig())
	talking, total := TalkingFrames(frames, profiles, 25, "A")
	if talking != 3 || total != 10 {
		t.Errorf("talking/total = %d/%d, want 3/10", talking, total)
	}
}

func TestConversationsSegmentation(t *testing.T) {
	var recs []record.Record
	// Conversation 1: frames at 0,15,30 s. Gap. Conversation 2: 300,315 s.
	for _, sec := range []int{0, 15, 30, 300, 315} {
		recs = append(recs, micRec(time.Duration(sec)*time.Second, 70, 140, 0.5))
	}
	// Interleave silence frames that must not join conversations.
	recs = append(recs, micRec(150*time.Second, 35, 0, 0))
	frames := frames(recs, DefaultConfig())
	convs := Conversations(frames, 45*time.Second)
	if len(convs) != 2 {
		t.Fatalf("conversations = %+v", convs)
	}
	if convs[0].Frames != 3 || convs[0].From != 0 || convs[0].To != 30*time.Second {
		t.Errorf("conv 1 = %+v", convs[0])
	}
	if convs[1].Frames != 2 {
		t.Errorf("conv 2 = %+v", convs[1])
	}
	if convs[0].MeanLoud < 69 || convs[0].MeanLoud > 71 {
		t.Errorf("mean loud = %v", convs[0].MeanLoud)
	}
}

func TestConversationsEmpty(t *testing.T) {
	if got := Conversations(nil, 0); len(got) != 0 {
		t.Errorf("conversations of nothing = %v", got)
	}
}
