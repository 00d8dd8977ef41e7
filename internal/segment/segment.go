// Package segment implements the persistent, compressed, immutable segment
// files the store spills missions to — the on-disk continuation of the
// sorted per-badge series in internal/store. The real ICAres-1 deployment wrote
// ~150 GiB of raw SD data; a memory-resident store stops scaling at RAM, so
// a segment file re-encodes one badge's time-ordered series into per-kind
// column blocks that an out-of-core reader (see Reader) can fetch and decode
// individually: queries seek to exactly the blocks they need.
//
// File layout:
//
//	[4]byte  magic "ISG1"
//	uint8    format version (1)
//	uint16   badge ID, little-endian
//	blocks   ...
//	index    one index frame describing every block
//	uint32   index frame length, little-endian
//	[4]byte  tail magic "ISGE"
//
// Each block frame is self-delimiting, so a file whose index was lost or
// corrupted can still be salvaged by a forward scan (the same contract as
// record.LogReader):
//
//	byte     block tag (0xB1)
//	uvarint  body length
//	body     see below
//	uint32   CRC-32 (IEEE) of the body, little-endian
//
// A block holds up to BlockSize consecutive records of the global
// time-ordered series, stored columnar by kind:
//
//	uvarint  record count
//	[count]byte  kind sequence — the kind of each record in series order,
//	             which is what lets the reader reconstruct the exact
//	             interleaving (ties across kinds keep append order)
//	for each kind present, ascending:
//	  uvarint  section length
//	  section:
//	    uvarint     timestamp scale — the GCD of the first timestamp and
//	                every delta in the section. Badges sample on a fixed
//	                tick, so raw nanosecond deltas (5×10⁹ for a 5 s tick)
//	                would cost five varint bytes each; dividing by the GCD
//	                collapses them to tick counts first
//	    timestamps  zigzag-varint first Local (scaled), then delta-of-delta
//	                zigzag-varints — on a regular tick the second derivative
//	                is almost always 0 and costs one byte
//	    bodies      KindAccel: per-axis zigzag-delta varint columns;
//	                KindBeacon/KindNeighbor: zigzag-delta peer-ID column
//	                (receivers sweep peers in a stable order) then an
//	                XOR-varint RSSI column; KindIR: zigzag-delta peer-ID
//	                column; KindMic: SpeechDetected bitset then XOR-varint
//	                columns for loudness, fundamental, and speech fraction;
//	                KindEnv: XOR-varint columns for temp, pressure, light;
//	                KindBattery: XOR-varint percentage column; all other
//	                kinds: concatenated record.AppendBody encodings.
//	                An XOR-varint float column stores each float32's bits
//	                XORed with the previous value's bits as a uvarint —
//	                repeated or zero values cost one byte
//
// The index frame uses the same tag/length/CRC framing with tag 0xF1; its
// body lists per block: file offset, frame length, record count, min/max
// Local, a kind bitmask, and per-kind record counts — the on-disk analog of
// the store's per-kind posting indexes, letting a per-kind Iter prune
// whole blocks without touching them.
package segment

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"time"

	"icares/internal/record"
)

// Format constants.
const (
	// Version is the current segment format version.
	Version = 1
	// DefaultBlockSize is the default number of records per block.
	DefaultBlockSize = 4096
	// maxBlockRecords bounds a block's declared record count; anything
	// larger is corrupt.
	maxBlockRecords = 1 << 16
	// maxBlockBytes bounds a block frame; a declared length beyond it is
	// corrupt (and unskippable, like an oversized record frame).
	maxBlockBytes = 1 << 22

	tagBlock = 0xB1
	tagIndex = 0xF1

	headerSize = 7 // magic + version + badge ID
	tailSize   = 8 // index frame length + tail magic
)

var (
	segMagic  = [4]byte{'I', 'S', 'G', '1'}
	tailMagic = [4]byte{'I', 'S', 'G', 'E'}
)

// Errors returned by the segment codec.
var (
	// ErrBadSegment is returned when a file is not a segment at all
	// (missing or mangled header).
	ErrBadSegment = errors.New("segment: bad segment header")
	// ErrCorrupt marks a corrupt block or index frame.
	ErrCorrupt = errors.New("segment: corrupt")
	// ErrOutOfOrder is returned by Writer.Append when records arrive out of
	// time order; segments are written from an already-sorted series view.
	ErrOutOfOrder = errors.New("segment: out-of-order append")
)

// kindCount is one per-kind record count inside a block. Kept packed
// (8 bytes) deliberately: a fleet-scale archive holds one index entry per
// block per badge, so this struct is the dominant resident cost of an open
// reader. int32 is ample — a block holds at most maxBlockRecords records.
type kindCount struct {
	kind  record.Kind
	count int32
}

// blockMeta is one index entry: where a block lives and what it holds.
type blockMeta struct {
	offset   int64 // file offset of the block frame's tag byte
	length   int64 // whole frame: tag + length varint + body + CRC
	count    int
	minLocal time.Duration
	maxLocal time.Duration
	counts   []kindCount // ascending by kind
}

func (m *blockMeta) kindCount(k record.Kind) int {
	for _, kc := range m.counts {
		if kc.kind == k {
			return int(kc.count)
		}
		if kc.kind > k {
			break
		}
	}
	return 0
}

// appendUvarint appends v as a uvarint.
func appendUvarint(b []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(b, tmp[:n]...)
}

// appendZigzag appends v zigzag-encoded as a uvarint, so small negative
// values (backwards delta-of-delta steps) stay small on disk.
func appendZigzag(b []byte, v int64) []byte {
	return appendUvarint(b, uint64(v)<<1^uint64(v>>63))
}

func unzigzag(u uint64) int64 {
	return int64(u>>1) ^ -int64(u&1)
}

// Writer streams one badge's time-ordered records into a segment file.
// Records must arrive in non-decreasing Local order — the writer's input is
// a sorted series view, and the block index depends on it. Close the
// segment with Finish, which writes the index frame and tail.
type Writer struct {
	w       io.Writer
	badgeID uint16
	block   int // records per block

	pending []record.Record
	metas   []blockMeta
	off     int64
	last    time.Duration
	total   int
	scratch []byte
	err     error
}

// NewWriter writes the segment header and returns a writer for the badge's
// records. blockSize is the number of records per block; <= 0 selects
// DefaultBlockSize, and values beyond the format bound are clamped.
func NewWriter(w io.Writer, badgeID uint16, blockSize int) (*Writer, error) {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	if blockSize > maxBlockRecords {
		blockSize = maxBlockRecords
	}
	var head [headerSize]byte
	copy(head[:4], segMagic[:])
	head[4] = Version
	binary.LittleEndian.PutUint16(head[5:7], badgeID)
	if _, err := w.Write(head[:]); err != nil {
		return nil, fmt.Errorf("segment header: %w", err)
	}
	return &Writer{w: w, badgeID: badgeID, block: blockSize, off: headerSize}, nil
}

// BadgeID returns the badge this segment belongs to.
func (sw *Writer) BadgeID() uint16 { return sw.badgeID }

// Append adds one record to the segment. Records must be appended in
// non-decreasing timestamp order.
func (sw *Writer) Append(r record.Record) error {
	if sw.err != nil {
		return sw.err
	}
	if _, err := record.EncodedSize(r); err != nil {
		return err // unknown kind: reject before it poisons a block
	}
	if sw.total > 0 && r.Local < sw.last {
		return ErrOutOfOrder
	}
	sw.last = r.Local
	sw.total++
	sw.pending = append(sw.pending, r)
	if len(sw.pending) >= sw.block {
		return sw.flushBlock()
	}
	return nil
}

// flushBlock encodes and writes the pending records as one block frame.
func (sw *Writer) flushBlock() error {
	if sw.err != nil {
		return sw.err
	}
	if len(sw.pending) == 0 {
		return nil
	}
	body, counts, err := appendBlockBody(sw.scratch[:0], sw.pending)
	if err != nil {
		sw.err = err
		return err
	}
	sw.scratch = body[:0]
	n, err := sw.writeFrame(tagBlock, body)
	if err != nil {
		sw.err = err
		return err
	}
	sw.metas = append(sw.metas, blockMeta{
		offset:   sw.off,
		length:   int64(n),
		count:    len(sw.pending),
		minLocal: sw.pending[0].Local,
		maxLocal: sw.pending[len(sw.pending)-1].Local,
		counts:   counts,
	})
	sw.off += int64(n)
	sw.pending = sw.pending[:0]
	return nil
}

// writeFrame writes one tagged, length-prefixed, CRC-trailed frame and
// returns its total size.
func (sw *Writer) writeFrame(tag byte, body []byte) (int, error) {
	head := make([]byte, 0, 1+binary.MaxVarintLen64)
	head = append(head, tag)
	head = appendUvarint(head, uint64(len(body)))
	if _, err := sw.w.Write(head); err != nil {
		return 0, fmt.Errorf("segment frame: %w", err)
	}
	if _, err := sw.w.Write(body); err != nil {
		return 0, fmt.Errorf("segment frame: %w", err)
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc32.ChecksumIEEE(body))
	if _, err := sw.w.Write(tail[:]); err != nil {
		return 0, fmt.Errorf("segment frame: %w", err)
	}
	return len(head) + len(body) + 4, nil
}

// Finish flushes the last partial block and writes the index frame and
// tail. The writer must not be used afterwards.
func (sw *Writer) Finish() error {
	if err := sw.flushBlock(); err != nil {
		return err
	}
	idx := sw.scratch[:0]
	idx = appendUvarint(idx, uint64(len(sw.metas)))
	for _, m := range sw.metas {
		idx = appendUvarint(idx, uint64(m.offset))
		idx = appendUvarint(idx, uint64(m.length))
		idx = appendUvarint(idx, uint64(m.count))
		idx = appendZigzag(idx, int64(m.minLocal))
		idx = appendZigzag(idx, int64(m.maxLocal))
		var mask uint64
		for _, kc := range m.counts {
			mask |= 1 << (uint(kc.kind) - 1)
		}
		idx = appendUvarint(idx, mask)
		for _, kc := range m.counts {
			idx = appendUvarint(idx, uint64(kc.count))
		}
	}
	n, err := sw.writeFrame(tagIndex, idx)
	if err != nil {
		sw.err = err
		return err
	}
	sw.off += int64(n)
	var tail [tailSize]byte
	binary.LittleEndian.PutUint32(tail[:4], uint32(n))
	copy(tail[4:], tailMagic[:])
	if _, err := sw.w.Write(tail[:]); err != nil {
		sw.err = err
		return fmt.Errorf("segment tail: %w", err)
	}
	sw.off += tailSize
	sw.err = errors.New("segment: writer finished")
	return nil
}

// appendBlockBody encodes recs (a contiguous, time-ordered chunk of the
// series) as one block body, returning the per-kind counts for the index.
func appendBlockBody(dst []byte, recs []record.Record) ([]byte, []kindCount, error) {
	dst = appendUvarint(dst, uint64(len(recs)))
	for _, r := range recs {
		dst = append(dst, byte(r.Kind))
	}
	kinds := presentKinds(recs)
	counts := make([]kindCount, 0, len(kinds))
	var section []byte
	for _, k := range kinds {
		section = section[:0]
		// Timestamp column: scale, first Local, then delta-of-delta (all in
		// scale units).
		scale := tsScale(recs, k)
		section = appendUvarint(section, uint64(scale))
		n := 0
		var prev, prevDelta int64
		for _, r := range recs {
			if r.Kind != k {
				continue
			}
			t := int64(r.Local) / scale
			if n == 0 {
				section = appendZigzag(section, t)
			} else {
				delta := t - prev
				section = appendZigzag(section, delta-prevDelta)
				prevDelta = delta
			}
			prev = t
			n++
		}
		// Body column.
		var err error
		if section, err = appendBodyColumn(section, k, recs); err != nil {
			return dst, nil, err
		}
		counts = append(counts, kindCount{kind: k, count: int32(n)})
		dst = appendUvarint(dst, uint64(len(section)))
		dst = append(dst, section...)
	}
	return dst, counts, nil
}

// tsScale returns the largest unit that exactly divides every timestamp of
// kind k in recs — the GCD of the first timestamp and all deltas. Records
// sampled on a fixed tick land on multiples of the tick, so this turns
// five-byte nanosecond deltas into one-byte tick counts.
func tsScale(recs []record.Record, k record.Kind) int64 {
	var g, prev int64
	n := 0
	for _, r := range recs {
		if r.Kind != k {
			continue
		}
		v := int64(r.Local)
		if n == 0 {
			g = gcd64(g, v)
		} else {
			g = gcd64(g, v-prev)
		}
		prev = v
		n++
		if g == 1 {
			break
		}
	}
	if g <= 0 {
		return 1
	}
	return g
}

func gcd64(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// appendBodyColumn appends the body column of one kind. Columns with
// exploitable structure get their own encodings: accelerometer axes and
// peer IDs as zigzag-delta varint columns (consecutive samples are close;
// receivers sweep peers in a stable order), every other kind as
// concatenated record.AppendBody encodings.
func appendBodyColumn(dst []byte, k record.Kind, recs []record.Record) ([]byte, error) {
	switch k {
	case record.KindAccel:
		for axis := 0; axis < 3; axis++ {
			var prev int64
			for _, r := range recs {
				if r.Kind != k {
					continue
				}
				var v int64
				switch axis {
				case 0:
					v = int64(r.AX)
				case 1:
					v = int64(r.AY)
				case 2:
					v = int64(r.AZ)
				}
				dst = appendZigzag(dst, v-prev)
				prev = v
			}
		}
		return dst, nil
	case record.KindBeacon, record.KindNeighbor, record.KindIR:
		var prev int64
		for _, r := range recs {
			if r.Kind != k {
				continue
			}
			dst = appendZigzag(dst, int64(r.PeerID)-prev)
			prev = int64(r.PeerID)
		}
		if k != record.KindIR {
			dst = appendF32Column(dst, k, recs, func(r *record.Record) float32 { return r.RSSI })
		}
		return dst, nil
	case record.KindMic:
		// SpeechDetected as a bitset, then the three feature columns.
		var bits, nbits byte
		for i := range recs {
			if recs[i].Kind != k {
				continue
			}
			if recs[i].SpeechDetected {
				bits |= 1 << nbits
			}
			if nbits++; nbits == 8 {
				dst = append(dst, bits)
				bits, nbits = 0, 0
			}
		}
		if nbits > 0 {
			dst = append(dst, bits)
		}
		dst = appendF32Column(dst, k, recs, func(r *record.Record) float32 { return r.LoudnessDB })
		dst = appendF32Column(dst, k, recs, func(r *record.Record) float32 { return r.FundamentalHz })
		dst = appendF32Column(dst, k, recs, func(r *record.Record) float32 { return r.SpeechFraction })
		return dst, nil
	case record.KindEnv:
		dst = appendF32Column(dst, k, recs, func(r *record.Record) float32 { return r.TempC })
		dst = appendF32Column(dst, k, recs, func(r *record.Record) float32 { return r.PressHPa })
		dst = appendF32Column(dst, k, recs, func(r *record.Record) float32 { return r.LightLux })
		return dst, nil
	case record.KindBattery:
		dst = appendF32Column(dst, k, recs, func(r *record.Record) float32 { return r.BatteryPct })
		return dst, nil
	}
	var err error
	for _, r := range recs {
		if r.Kind != k {
			continue
		}
		if dst, err = record.AppendBody(dst, r); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// appendF32Column appends one float32 column as uvarints of each value's
// bits XORed with the previous value's bits: repeated or zero values cost
// one byte, and slowly drifting sensor floats share sign/exponent/high
// mantissa bits so the XOR stays small.
func appendF32Column(dst []byte, k record.Kind, recs []record.Record, get func(*record.Record) float32) []byte {
	var prev uint32
	for i := range recs {
		if recs[i].Kind != k {
			continue
		}
		u := math.Float32bits(get(&recs[i]))
		dst = appendUvarint(dst, uint64(u^prev))
		prev = u
	}
	return dst
}

// decodeF32Column decodes a column written by appendF32Column into out via
// set, returning the remaining section bytes.
func decodeF32Column(section []byte, out []record.Record, set func(*record.Record, float32)) ([]byte, error) {
	var prev uint32
	for i := range out {
		u, n := binary.Uvarint(section)
		if n <= 0 || u > 0xFFFFFFFF {
			return nil, ErrCorrupt
		}
		section = section[n:]
		prev ^= uint32(u)
		set(&out[i], math.Float32frombits(prev))
	}
	return section, nil
}

// presentKinds returns the distinct kinds in recs, ascending.
func presentKinds(recs []record.Record) []record.Kind {
	var seen [256]bool
	for _, r := range recs {
		seen[r.Kind] = true
	}
	var out []record.Kind
	for k := 0; k < 256; k++ {
		if seen[k] {
			out = append(out, record.Kind(k))
		}
	}
	return out
}

// decodedBlock is one fully decoded block: the records in series order and
// the per-kind time-ordered sub-slices — the in-memory shape store queries
// want, built once and cached by the reader.
type decodedBlock struct {
	recs   []record.Record
	byKind map[record.Kind][]record.Record
	// corrupt marks a block whose CRC or decode failed at read time; its
	// records are lost (salvage semantics) and the reader counts it.
	corrupt bool
}

// decodeBlockBody decodes one block body.
func decodeBlockBody(body []byte) (*decodedBlock, error) {
	count, n := binary.Uvarint(body)
	if n <= 0 || count > maxBlockRecords {
		return nil, ErrCorrupt
	}
	body = body[n:]
	if uint64(len(body)) < count {
		return nil, ErrCorrupt
	}
	kindSeq := body[:count]
	body = body[count:]

	// Per-kind counts from the kind sequence.
	var perKind [256]int
	for _, kb := range kindSeq {
		perKind[kb]++
	}

	byKind := make(map[record.Kind][]record.Record)
	for k := 0; k < 256; k++ {
		nk := perKind[k]
		if nk == 0 {
			continue
		}
		slen, n := binary.Uvarint(body)
		if n <= 0 || uint64(len(body)-n) < slen {
			return nil, ErrCorrupt
		}
		section := body[n : n+int(slen)]
		body = body[n+int(slen):]
		col, err := decodeSection(record.Kind(k), nk, section)
		if err != nil {
			return nil, err
		}
		byKind[record.Kind(k)] = col
	}
	if len(body) != 0 {
		return nil, ErrCorrupt
	}

	// Rebuild the exact series-order interleaving from the kind sequence.
	recs := make([]record.Record, 0, count)
	var cursor [256]int
	for _, kb := range kindSeq {
		col := byKind[record.Kind(kb)]
		recs = append(recs, col[cursor[kb]])
		cursor[kb]++
	}
	return &decodedBlock{recs: recs, byKind: byKind}, nil
}

// decodeSection decodes one kind's section (timestamp column + body column)
// into nk records.
func decodeSection(k record.Kind, nk int, section []byte) ([]record.Record, error) {
	out := make([]record.Record, nk)
	// Timestamps: scale, then first value and delta-of-delta in scale units.
	su, n := binary.Uvarint(section)
	if n <= 0 || su == 0 || su > uint64(1)<<62 {
		return nil, ErrCorrupt
	}
	section = section[n:]
	scale := int64(su)
	var prev, prevDelta int64
	for i := 0; i < nk; i++ {
		u, n := binary.Uvarint(section)
		if n <= 0 {
			return nil, ErrCorrupt
		}
		section = section[n:]
		v := unzigzag(u)
		if i == 0 {
			prev = v
		} else {
			prevDelta += v
			prev += prevDelta
		}
		out[i].Kind = k
		out[i].Local = time.Duration(prev * scale)
	}
	// Bodies.
	switch k {
	case record.KindAccel:
		for axis := 0; axis < 3; axis++ {
			var prevV int64
			for i := 0; i < nk; i++ {
				u, n := binary.Uvarint(section)
				if n <= 0 {
					return nil, ErrCorrupt
				}
				section = section[n:]
				prevV += unzigzag(u)
				if prevV < -32768 || prevV > 32767 {
					return nil, ErrCorrupt
				}
				switch axis {
				case 0:
					out[i].AX = int16(prevV)
				case 1:
					out[i].AY = int16(prevV)
				case 2:
					out[i].AZ = int16(prevV)
				}
			}
		}
	case record.KindBeacon, record.KindNeighbor, record.KindIR:
		var prevP int64
		for i := 0; i < nk; i++ {
			u, n := binary.Uvarint(section)
			if n <= 0 {
				return nil, ErrCorrupt
			}
			section = section[n:]
			prevP += unzigzag(u)
			if prevP < 0 || prevP > 65535 {
				return nil, ErrCorrupt
			}
			out[i].PeerID = uint16(prevP)
		}
		if k != record.KindIR {
			var err error
			if section, err = decodeF32Column(section, out, func(r *record.Record, v float32) { r.RSSI = v }); err != nil {
				return nil, err
			}
		}
	case record.KindMic:
		nbytes := (nk + 7) / 8
		if len(section) < nbytes {
			return nil, ErrCorrupt
		}
		for i := 0; i < nk; i++ {
			out[i].SpeechDetected = section[i/8]&(1<<(i%8)) != 0
		}
		section = section[nbytes:]
		for _, set := range []func(*record.Record, float32){
			func(r *record.Record, v float32) { r.LoudnessDB = v },
			func(r *record.Record, v float32) { r.FundamentalHz = v },
			func(r *record.Record, v float32) { r.SpeechFraction = v },
		} {
			var err error
			if section, err = decodeF32Column(section, out, set); err != nil {
				return nil, err
			}
		}
	case record.KindEnv:
		for _, set := range []func(*record.Record, float32){
			func(r *record.Record, v float32) { r.TempC = v },
			func(r *record.Record, v float32) { r.PressHPa = v },
			func(r *record.Record, v float32) { r.LightLux = v },
		} {
			var err error
			if section, err = decodeF32Column(section, out, set); err != nil {
				return nil, err
			}
		}
	case record.KindBattery:
		var err error
		if section, err = decodeF32Column(section, out, func(r *record.Record, v float32) { r.BatteryPct = v }); err != nil {
			return nil, err
		}
	default:
		for i := 0; i < nk; i++ {
			used, err := record.DecodeBody(&out[i], section)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
			section = section[used:]
		}
	}
	if len(section) != 0 {
		return nil, ErrCorrupt
	}
	return out, nil
}
