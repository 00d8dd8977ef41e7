package segment

import (
	"bufio"
	"container/list"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"os"
	"sort"
	"sync"
	"time"

	"icares/internal/record"
)

// DefaultCacheBlocks is the default capacity of a reader's decoded-block
// cache. At the default block size that is a few MiB per badge — the whole
// point of the out-of-core path is that this, not the file size, bounds
// resident memory.
const DefaultCacheBlocks = 64

// Reader answers store queries out-of-core from one segment file: it keeps
// only the block index resident, seek-reads exactly the blocks a query
// overlaps, and holds a small LRU cache of decoded blocks so repeated
// queries over the same window stay allocation-free. It answers the same
// store.View contract as store.Series and is safe for concurrent readers.
//
// Salvage follows record.LogReader semantics: a segment whose index frame
// is lost or corrupt is recovered by a forward scan over the self-framed
// blocks (Skipped counts corrupt blocks dropped, Truncated reports a
// mid-frame tail), and a block that fails its CRC, decode, or read at query
// time is dropped for the reader's lifetime (reopen to retry a transient
// I/O error) and counted by CorruptBlocks.
//
// Len is lazily consistent with that query-time salvage: it subtracts the
// records of every block discovered corrupt so far, so after a full-window
// Iter has touched every block, Len equals the number of records the scan
// yielded even when blocks were damaged after the index was written.
// Dropped reports how many indexed records have been lost that way.
type Reader struct {
	r      io.ReaderAt
	closer io.Closer
	size   int64

	badgeID uint16
	blocks  []blockMeta
	total   int

	skipped   int
	truncated bool
	salvaged  bool

	mu    sync.Mutex
	cache map[int]*list.Element
	lru   *list.List // front = most recently used; values are *cacheSlot
	cap   int
	// dropped holds the indexes of blocks discovered corrupt at query time.
	// It survives LRU eviction so a re-read of the same bad block is never
	// double-counted; droppedTotal mirrors it in record units.
	dropped      map[int]struct{}
	droppedTotal int
}

// cacheSlot is one cached decoded block.
type cacheSlot struct {
	idx   int
	block *decodedBlock
}

// Open opens a segment file for out-of-core reads.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	r, err := NewReader(f, fi.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	r.closer = f
	return r, nil
}

// NewReader opens a segment from any io.ReaderAt (a file, or bytes in
// tests and fuzzing). Only a missing or mangled header fails; a damaged
// index or damaged blocks salvage what is readable, reported via Skipped
// and Truncated.
func NewReader(ra io.ReaderAt, size int64) (*Reader, error) {
	var head [headerSize]byte
	if _, err := ra.ReadAt(head[:], 0); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSegment, err)
	}
	if [4]byte(head[0:4]) != segMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadSegment)
	}
	if head[4] != Version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadSegment, head[4])
	}
	r := &Reader{
		r:       ra,
		size:    size,
		badgeID: binary.LittleEndian.Uint16(head[5:7]),
		cache:   make(map[int]*list.Element),
		lru:     list.New(),
		cap:     DefaultCacheBlocks,
	}
	if err := r.loadIndex(); err != nil {
		r.salvageScan()
	}
	for _, m := range r.blocks {
		r.total += m.count
	}
	return r, nil
}

// SetCacheBlocks resizes the decoded-block cache (minimum 1). Call before
// issuing queries; shrinking does not evict already-cached blocks until the
// next insert.
func (r *Reader) SetCacheBlocks(n int) {
	if n < 1 {
		n = 1
	}
	r.mu.Lock()
	r.cap = n
	r.mu.Unlock()
}

// loadIndex parses the tail-anchored index frame. Any inconsistency
// returns an error so the caller can fall back to the salvage scan.
func (r *Reader) loadIndex() error {
	if r.size < headerSize+tailSize {
		return ErrCorrupt
	}
	var tail [tailSize]byte
	if _, err := r.r.ReadAt(tail[:], r.size-tailSize); err != nil {
		return err
	}
	if [4]byte(tail[4:8]) != tailMagic {
		return ErrCorrupt
	}
	frameLen := int64(binary.LittleEndian.Uint32(tail[:4]))
	frameStart := r.size - tailSize - frameLen
	if frameLen < 6 || frameStart < headerSize {
		return ErrCorrupt
	}
	frame := make([]byte, frameLen)
	if _, err := r.r.ReadAt(frame, frameStart); err != nil {
		return err
	}
	body, err := checkFrame(frame, tagIndex)
	if err != nil {
		return err
	}

	nBlocks, n := binary.Uvarint(body)
	if n <= 0 {
		return ErrCorrupt
	}
	body = body[n:]
	blocks := make([]blockMeta, 0, nBlocks)
	next := int64(headerSize)
	for b := uint64(0); b < nBlocks; b++ {
		var m blockMeta
		var fields [4]uint64
		for i := range fields {
			v, n := binary.Uvarint(body)
			if n <= 0 {
				return ErrCorrupt
			}
			fields[i] = v
			body = body[n:]
		}
		m.offset = int64(fields[0])
		m.length = int64(fields[1])
		m.count = int(fields[2])
		m.minLocal = time.Duration(unzigzag(fields[3]))
		v, n := binary.Uvarint(body)
		if n <= 0 {
			return ErrCorrupt
		}
		m.maxLocal = time.Duration(unzigzag(v))
		body = body[n:]
		mask, n := binary.Uvarint(body)
		if n <= 0 {
			return ErrCorrupt
		}
		body = body[n:]
		// Exact-size allocation: with one index entry per block, append
		// growth slack across a 30-badge archive adds up to megabytes.
		m.counts = make([]kindCount, 0, bits.OnesCount64(mask))
		total := 0
		for k := 0; k < 64; k++ {
			if mask&(1<<k) == 0 {
				continue
			}
			c, n := binary.Uvarint(body)
			if n <= 0 {
				return ErrCorrupt
			}
			body = body[n:]
			m.counts = append(m.counts, kindCount{kind: record.Kind(k + 1), count: int32(c)})
			total += int(c)
		}
		// The index must describe a plausible, in-bounds, in-order block.
		if m.offset != next || m.length <= 0 || m.offset+m.length > frameStart ||
			m.count <= 0 || m.count > maxBlockRecords || total != m.count ||
			m.minLocal > m.maxLocal {
			return ErrCorrupt
		}
		next = m.offset + m.length
		blocks = append(blocks, m)
	}
	if len(body) != 0 {
		return ErrCorrupt
	}
	r.blocks = blocks
	return nil
}

// checkFrame validates one tagged frame (tag, length, CRC) and returns its
// body.
func checkFrame(frame []byte, tag byte) ([]byte, error) {
	if len(frame) < 6 || frame[0] != tag {
		return nil, ErrCorrupt
	}
	blen, n := binary.Uvarint(frame[1:])
	if n <= 0 || int64(blen) > maxBlockBytes || 1+n+int(blen)+4 != len(frame) {
		return nil, ErrCorrupt
	}
	body := frame[1+n : 1+n+int(blen)]
	want := binary.LittleEndian.Uint32(frame[len(frame)-4:])
	if crc32.ChecksumIEEE(body) != want {
		return nil, ErrCorrupt
	}
	return body, nil
}

// salvageScan rebuilds the block index by a forward scan over the
// self-framed blocks — the path taken when the index frame is lost (a crash
// before Finish completed) or corrupted. Corrupt blocks are skipped and
// counted; an unparseable tail marks the segment truncated.
func (r *Reader) salvageScan() {
	r.salvaged = true
	r.blocks = nil
	br := bufio.NewReaderSize(io.NewSectionReader(r.r, headerSize, r.size-headerSize), 1<<16)
	off := int64(headerSize)
	for {
		tag, err := br.ReadByte()
		if err != nil {
			return // clean end (or empty tail): nothing after the last block
		}
		if tag == tagIndex {
			return // blocks ended; only the index/tail was damaged
		}
		if tag != tagBlock {
			r.truncated = true
			return
		}
		blen, err := binary.ReadUvarint(br)
		if err != nil {
			r.truncated = true
			return
		}
		if blen > maxBlockBytes {
			// Cannot resync after a corrupted length; treat as end.
			r.skipped++
			r.truncated = true
			return
		}
		frameLen := int64(1+uvarintLen(blen)) + int64(blen) + 4
		buf := make([]byte, blen+4)
		if _, err := io.ReadFull(br, buf); err != nil {
			r.truncated = true
			return
		}
		body := buf[:blen]
		if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(buf[blen:]) {
			r.skipped++
			off += frameLen
			continue
		}
		blk, err := decodeBlockBody(body)
		if err != nil || len(blk.recs) == 0 {
			r.skipped++
			off += frameLen
			continue
		}
		counts := make([]kindCount, 0, len(blk.byKind))
		for _, k := range presentKinds(blk.recs) {
			counts = append(counts, kindCount{kind: k, count: int32(len(blk.byKind[k]))})
		}
		r.blocks = append(r.blocks, blockMeta{
			offset:   off,
			length:   frameLen,
			count:    len(blk.recs),
			minLocal: blk.recs[0].Local,
			maxLocal: blk.recs[len(blk.recs)-1].Local,
			counts:   counts,
		})
		off += frameLen
	}
}

// uvarintLen returns the number of bytes PutUvarint emits for v.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// Close releases the underlying file, if the reader owns one.
func (r *Reader) Close() error {
	if r.closer != nil {
		return r.closer.Close()
	}
	return nil
}

// BadgeID returns the badge this segment belongs to.
func (r *Reader) BadgeID() uint16 { return r.badgeID }

// Len returns the number of readable records: the index total minus the
// records of blocks discovered corrupt at query time, so it agrees with a
// full-window Iter once every block has been touched.
func (r *Reader) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total - r.droppedTotal
}

// BytesOnDisk returns the segment file size — the figure to hold against
// the in-memory store's EncodedBytes for the compression ratio.
func (r *Reader) BytesOnDisk() int64 { return r.size }

// Blocks returns how many blocks the segment holds.
func (r *Reader) Blocks() int { return len(r.blocks) }

// Skipped returns how many corrupt blocks the salvage scan dropped.
func (r *Reader) Skipped() int { return r.skipped }

// Truncated reports whether the segment ended mid-frame during salvage —
// the process died while a block was being written.
func (r *Reader) Truncated() bool { return r.truncated }

// Salvaged reports whether the index frame was unusable and the block index
// had to be rebuilt by scanning.
func (r *Reader) Salvaged() bool { return r.salvaged }

// CorruptBlocks returns how many distinct blocks failed their CRC, decode,
// or read at query time; their records are lost to views (and subtracted
// from Len), mirroring load salvage.
func (r *Reader) CorruptBlocks() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return int64(len(r.dropped))
}

// Dropped returns how many indexed records sit in blocks discovered corrupt
// at query time — the delta between the index totals and what queries can
// return.
func (r *Reader) Dropped() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.droppedTotal
}

// block returns the decoded block i, from cache or by one seek+read. A
// block that fails its CRC, decode, or read is cached as corrupt so it is
// not re-read on every query, and its records are subtracted from
// Len exactly once (the dropped set outlives cache eviction).
func (r *Reader) block(i int) *decodedBlock {
	r.mu.Lock()
	if el, ok := r.cache[i]; ok {
		r.lru.MoveToFront(el)
		blk := el.Value.(*cacheSlot).block
		r.mu.Unlock()
		return blk
	}
	r.mu.Unlock()

	m := &r.blocks[i]
	frame := make([]byte, m.length)
	blk := new(decodedBlock)
	if _, err := r.r.ReadAt(frame, m.offset); err != nil {
		blk.corrupt = true
	} else if body, err := checkFrame(frame, tagBlock); err != nil {
		blk.corrupt = true
	} else if decoded, err := decodeBlockBody(body); err != nil {
		blk.corrupt = true
	} else {
		blk = decoded
	}

	r.mu.Lock()
	if el, ok := r.cache[i]; ok { // raced with another reader; keep theirs
		r.lru.MoveToFront(el)
		blk = el.Value.(*cacheSlot).block
	} else {
		if blk.corrupt {
			if _, seen := r.dropped[i]; !seen {
				if r.dropped == nil {
					r.dropped = make(map[int]struct{})
				}
				r.dropped[i] = struct{}{}
				r.droppedTotal += m.count
			}
		}
		r.cache[i] = r.lru.PushFront(&cacheSlot{idx: i, block: blk})
		for r.lru.Len() > r.cap {
			last := r.lru.Back()
			delete(r.cache, last.Value.(*cacheSlot).idx)
			r.lru.Remove(last)
		}
	}
	r.mu.Unlock()
	return blk
}

// rangeBlocks returns the half-open block span [lo, hi) whose time ranges
// overlap [from, to), empty for inverted or empty windows.
func (r *Reader) rangeBlocks(from, to time.Duration) (int, int) {
	if from >= to {
		return 0, 0
	}
	lo := sort.Search(len(r.blocks), func(i int) bool { return r.blocks[i].maxLocal >= from })
	hi := lo
	for hi < len(r.blocks) && r.blocks[hi].minLocal < to {
		hi++
	}
	return lo, hi
}

// sliceRange returns the [from, to) sub-slice of a time-sorted record
// slice — the same two binary searches store.Series uses, clamped so
// inverted windows are empty.
func sliceRange(recs []record.Record, from, to time.Duration) []record.Record {
	lo := sort.Search(len(recs), func(i int) bool { return recs[i].Local >= from })
	hi := sort.Search(len(recs), func(i int) bool { return recs[i].Local >= to })
	if hi < lo {
		hi = lo
	}
	return recs[lo:hi]
}

// Last returns the latest record, if any.
func (r *Reader) Last() (record.Record, bool) {
	for i := len(r.blocks) - 1; i >= 0; i-- {
		if recs := r.block(i).recs; len(recs) > 0 {
			return recs[len(recs)-1], true
		}
	}
	return record.Record{}, false
}

// Iter returns a streaming cursor over the records in [from, to),
// optionally restricted to one kind (k == 0 iterates every kind). It
// touches only the blocks the query needs, one at a time — the record
// stream a store.View exposes without ever materializing it; stepping
// through a cached block allocates nothing.
func (r *Reader) Iter(from, to time.Duration, k record.Kind) record.Cursor {
	lo, hi := r.rangeBlocks(from, to)
	next := lo
	return record.PullCursor(func() []record.Record {
		for next < hi {
			i := next
			next++
			if k != 0 && r.blocks[i].kindCount(k) == 0 {
				continue
			}
			blk := r.block(i)
			recs := blk.recs
			if k != 0 {
				recs = blk.byKind[k]
			}
			if recs = sliceRange(recs, from, to); len(recs) > 0 {
				return recs
			}
		}
		return nil
	})
}
