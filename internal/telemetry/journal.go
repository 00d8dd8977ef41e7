package telemetry

import (
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// The journal is the flight recorder of the observability plane: where the
// metrics registry answers "how much, right now", the journal answers "what
// happened, in what order". Every entry is a structured event on the
// simulated mission clock, so a crew (or the CTMC reliability fit twenty
// light-minutes away) can replay a habitat's failure story from the black
// box instead of reverse-engineering it from counter deltas.

// EventSeverity grades journal events. It is deliberately distinct from
// support.Severity: the journal records system-plane events (crashes,
// backoff, quarantines), not just crew-facing alerts.
type EventSeverity int

// Event severities, in ascending order.
const (
	SevDebug EventSeverity = iota + 1
	SevInfo
	SevWarn
	SevError
)

// String returns the severity label.
func (s EventSeverity) String() string {
	switch s {
	case SevDebug:
		return "debug"
	case SevInfo:
		return "info"
	case SevWarn:
		return "warning"
	case SevError:
		return "error"
	default:
		return "severity(" + strconv.Itoa(int(s)) + ")"
	}
}

// ParseSeverity maps a severity label back to its value.
func ParseSeverity(s string) (EventSeverity, bool) {
	switch s {
	case "debug":
		return SevDebug, true
	case "info":
		return SevInfo, true
	case "warning", "warn":
		return SevWarn, true
	case "error":
		return SevError, true
	default:
		return 0, false
	}
}

// Field is one ordered key/value annotation on an event.
type Field struct {
	Key, Value string
}

// F is shorthand for constructing a Field.
func F(key, value string) Field { return Field{Key: key, Value: value} }

// Fu renders a uint64 field.
func Fu(key string, v uint64) Field { return Field{Key: key, Value: strconv.FormatUint(v, 10)} }

// Fi renders an int field.
func Fi(key string, v int) Field { return Field{Key: key, Value: strconv.Itoa(v)} }

// Event is one structured flight-recorder entry.
type Event struct {
	// Seq is the journal-assigned append ordinal (1-based): a total order
	// over one journal's events, stable across ring eviction.
	Seq uint64
	// At is the simulated mission time of the event.
	At time.Duration
	// Component names the emitting subsystem ("offload", "support",
	// "mission", "fleet", "uplink").
	Component string
	Severity  EventSeverity
	// Habitat tags the event with its habitat ID in fleet deployments
	// (stamped by the journal when set; "" outside a fleet).
	Habitat string
	// Kind is the stable machine-readable event type ("gateway-crash",
	// "badge-death", "alert", "quarantine", ...).
	Kind    string
	Message string
	// Fields carry structured detail, in emission order.
	Fields []Field
}

// appendJSON renders the event as one JSON object with a fixed key order,
// byte-deterministically (no reflection, no map iteration).
func (e Event) appendJSON(b []byte) []byte {
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, e.Seq, 10)
	b = append(b, `,"at_ns":`...)
	b = strconv.AppendInt(b, int64(e.At), 10)
	b = append(b, `,"at":`...)
	b = strconv.AppendQuote(b, e.At.String())
	b = append(b, `,"severity":`...)
	b = strconv.AppendQuote(b, e.Severity.String())
	b = append(b, `,"component":`...)
	b = strconv.AppendQuote(b, e.Component)
	if e.Habitat != "" {
		b = append(b, `,"habitat":`...)
		b = strconv.AppendQuote(b, e.Habitat)
	}
	b = append(b, `,"kind":`...)
	b = strconv.AppendQuote(b, e.Kind)
	b = append(b, `,"message":`...)
	b = strconv.AppendQuote(b, e.Message)
	if len(e.Fields) > 0 {
		b = append(b, `,"fields":{`...)
		for i, f := range e.Fields {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendQuote(b, f.Key)
			b = append(b, ':')
			b = strconv.AppendQuote(b, f.Value)
		}
		b = append(b, '}')
	}
	return append(b, '}')
}

// DefaultJournalCapacity bounds a journal built with capacity <= 0.
const DefaultJournalCapacity = 4096

// Journal is a goroutine-safe, bounded-ring flight recorder. When capacity
// is reached the oldest events are evicted and counted in Dropped — a
// months-long unattended run keeps the recent history, and the drop count
// tells an investigator exactly how much of the tape is missing. A nil
// *Journal is a usable no-op, like the registry's nil metric handles, so
// components journal unconditionally.
type Journal struct {
	mu      sync.Mutex
	events  []Event
	start   int // ring head: index of the oldest event
	count   int
	cap     int
	seq     uint64
	dropped uint64
	habitat string
}

// NewJournal creates a journal retaining up to capacity events
// (DefaultJournalCapacity if capacity <= 0).
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultJournalCapacity
	}
	return &Journal{events: make([]Event, capacity), cap: capacity}
}

// SetHabitat stamps every subsequently recorded event with the habitat ID
// (unless the event already carries one). Call before concurrent use.
func (j *Journal) SetHabitat(id string) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.habitat = id
	j.mu.Unlock()
}

// Record appends one event, assigning its sequence number and evicting the
// oldest event past capacity.
func (j *Journal) Record(e Event) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.seq++
	e.Seq = j.seq
	if e.Habitat == "" {
		e.Habitat = j.habitat
	}
	if j.count == j.cap {
		j.events[j.start] = e
		j.start = (j.start + 1) % j.cap
		j.dropped++
	} else {
		j.events[(j.start+j.count)%j.cap] = e
		j.count++
	}
	j.mu.Unlock()
}

// Emit is the convenience constructor-and-record: one call sites use on hot
// paths without building an Event literal.
func (j *Journal) Emit(at time.Duration, sev EventSeverity, component, kind, message string, fields ...Field) {
	if j == nil {
		return
	}
	j.Record(Event{At: at, Severity: sev, Component: component, Kind: kind, Message: message, Fields: fields})
}

// Len returns how many events are retained.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.count
}

// Dropped returns how many events ring eviction has discarded.
func (j *Journal) Dropped() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dropped
}

// Events returns the retained events in append order (copy).
func (j *Journal) Events() []Event {
	return j.Select(EventQuery{})
}

// EventQuery filters a journal read. The zero value selects everything.
type EventQuery struct {
	// MinSeverity drops events below the given severity (0 = all).
	MinSeverity EventSeverity
	// Kind selects one event kind ("" = all).
	Kind string
	// Component selects one emitting component ("" = all).
	Component string
	// Limit keeps only the NEWEST n matching events (0 = all) — an
	// incident investigation wants the end of the tape, not the start.
	Limit int
}

func (q EventQuery) match(e Event) bool {
	if q.MinSeverity != 0 && e.Severity < q.MinSeverity {
		return false
	}
	if q.Kind != "" && e.Kind != q.Kind {
		return false
	}
	if q.Component != "" && e.Component != q.Component {
		return false
	}
	return true
}

// Select returns the retained events matching the query, in append order.
func (j *Journal) Select(q EventQuery) []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	out := make([]Event, 0, j.count)
	for i := 0; i < j.count; i++ {
		e := j.events[(j.start+i)%j.cap]
		if q.match(e) {
			out = append(out, e)
		}
	}
	j.mu.Unlock()
	if q.Limit > 0 && len(out) > q.Limit {
		out = out[len(out)-q.Limit:]
	}
	return out
}

// WriteJSON dumps the retained events as JSON Lines, one event object per
// line, in append order. Two dumps with no intervening records are
// byte-identical, and equal seeds driving a deterministic pipeline produce
// equal dumps — the property the chaos suite diffs on.
func (j *Journal) WriteJSON(w io.Writer) error {
	return WriteEventsJSON(w, j.Events())
}

// WriteEventsJSON dumps an event slice as JSON Lines — the same rendering
// WriteJSON uses, for callers holding an already-merged timeline.
func WriteEventsJSON(w io.Writer, events []Event) error {
	var buf []byte
	for _, e := range events {
		buf = e.appendJSON(buf[:0])
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// MergeEvents time-merges several journals' event slices into one timeline:
// sorted by mission time, then habitat, then sequence number — the
// deterministic cross-journal order the fleet's /fleet/events endpoint
// serves.
func MergeEvents(slices ...[]Event) []Event {
	var n int
	for _, s := range slices {
		n += len(s)
	}
	out := make([]Event, 0, n)
	for _, s := range slices {
		out = append(out, s...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		if out[i].Habitat != out[j].Habitat {
			return out[i].Habitat < out[j].Habitat
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}
