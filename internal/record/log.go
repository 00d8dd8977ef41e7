package record

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Log file layout: a fixed header followed by frames.
//
//	[4]byte  magic "ICR1"
//	uint8    format version (1)
//	uint16   badge ID, little-endian
//	frames...

var logMagic = [4]byte{'I', 'C', 'R', '1'}

// LogVersion is the current log format version.
const LogVersion = 1

// ErrBadHeader is returned when a log header is malformed.
var ErrBadHeader = errors.New("record: bad log header")

// LogWriter streams records of one badge into an io.Writer.
type LogWriter struct {
	w       *bufio.Writer
	badgeID uint16
	scratch []byte
}

// NewLogWriter writes the log header and returns a writer for the badge's
// records.
func NewLogWriter(w io.Writer, badgeID uint16) (*LogWriter, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(logMagic[:]); err != nil {
		return nil, fmt.Errorf("write magic: %w", err)
	}
	if err := bw.WriteByte(LogVersion); err != nil {
		return nil, fmt.Errorf("write version: %w", err)
	}
	var id [2]byte
	binary.LittleEndian.PutUint16(id[:], badgeID)
	if _, err := bw.Write(id[:]); err != nil {
		return nil, fmt.Errorf("write badge id: %w", err)
	}
	return &LogWriter{w: bw, badgeID: badgeID}, nil
}

// BadgeID returns the badge this log belongs to.
func (lw *LogWriter) BadgeID() uint16 { return lw.badgeID }

// Append encodes and writes one record.
func (lw *LogWriter) Append(r Record) error {
	frame, err := AppendFrame(lw.scratch[:0], r)
	if err != nil {
		return err
	}
	lw.scratch = frame[:0]
	if _, err := lw.w.Write(frame); err != nil {
		return fmt.Errorf("append frame: %w", err)
	}
	return nil
}

// Flush flushes buffered frames to the underlying writer.
func (lw *LogWriter) Flush() error { return lw.w.Flush() }

// LogReader streams records back out of a log.
type LogReader struct {
	r         *bufio.Reader
	badgeID   uint16
	skipped   int
	truncated bool
}

// NewLogReader validates the header and returns a reader.
func NewLogReader(r io.Reader) (*LogReader, error) {
	br := bufio.NewReader(r)
	var head [7]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadHeader, err)
	}
	if [4]byte(head[0:4]) != logMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadHeader)
	}
	if head[4] != LogVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadHeader, head[4])
	}
	return &LogReader{
		r:       br,
		badgeID: binary.LittleEndian.Uint16(head[5:7]),
	}, nil
}

// BadgeID returns the badge this log belongs to.
func (lr *LogReader) BadgeID() uint16 { return lr.badgeID }

// Skipped returns how many corrupt frames Next has skipped so far.
func (lr *LogReader) Skipped() int { return lr.skipped }

// Truncated reports whether the log ended mid-frame rather than at a clean
// frame boundary — the SD-card-pulled-mid-write case. The records returned
// before the truncation point are intact and usable.
func (lr *LogReader) Truncated() bool { return lr.truncated }

// Next returns the next record. Corrupt frames are skipped (counted via
// Skipped) as a real offline pipeline must tolerate SD-card bit rot; io.EOF
// signals the end of the log, with Truncated distinguishing a mid-frame
// tail from a clean boundary.
func (lr *LogReader) Next() (Record, error) {
	for {
		plen, err := binary.ReadUvarint(lr.r)
		if err != nil {
			if errors.Is(err, io.ErrUnexpectedEOF) {
				// The log ended inside a length prefix: a frame was mid-write
				// when the log stopped.
				lr.truncated = true
				return Record{}, io.EOF
			}
			return Record{}, err
		}
		if plen > MaxFrameSize {
			// Cannot resync after a corrupted length; treat as end.
			lr.skipped++
			lr.truncated = true
			return Record{}, io.EOF
		}
		body := make([]byte, int(plen)+4)
		if _, err := io.ReadFull(lr.r, body); err != nil {
			// The tail frame is shorter than its declared length: the log
			// stopped mid-write. Everything read so far stands.
			lr.truncated = true
			return Record{}, io.EOF
		}
		payload := body[:plen]
		wantCRC := binary.LittleEndian.Uint32(body[plen:])
		if crcOf(payload) != wantCRC {
			lr.skipped++
			continue
		}
		rec, err := decodePayload(payload)
		if err != nil {
			lr.skipped++
			continue
		}
		return rec, nil
	}
}

func crcOf(payload []byte) uint32 {
	return crc32.ChecksumIEEE(payload)
}
