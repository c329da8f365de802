// The write-ahead op log: an append-only sequence of CRC-framed,
// fsynced records split across segment files. Each record is one
// core.Op plus its sequence number; recovery replays the intact prefix
// and truncates a torn tail in place.
//
// On-disk layout (little endian):
//
//	segment file  wal/seg-<first-seq, 16 hex digits>.log
//	record frame  [4B payload length][4B CRC-32C of payload][payload]
//	payload       binary record, version 4 (3 still read; see walrecord.go)
//
// A record is committed iff its full frame is on disk and the CRC
// matches. The last segment may end in a torn frame (the write the crash
// interrupted); recovery truncates the file back to the last committed
// record. A bad frame anywhere else — a committed frame in a layout this
// build does not read or of a removed op kind, or one with an
// out-of-order sequence — is corruption and refuses to load.
//
// The epoch is the cluster term the record was committed under. Epochs
// may only rise along the log; a committed record with a lower epoch
// than its predecessor is corruption, because promotion only ever
// increments the epoch and fences the old one before new appends happen.
package catalog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"

	"repro/internal/codec"
	"repro/internal/core"
)

// ErrCorrupt is returned when the write-ahead log fails an integrity
// check that truncation cannot repair (a bad record that is not the torn
// tail of the last segment).
var ErrCorrupt = errors.New("catalog: write-ahead log corrupt")

// ErrSeqGone is returned by the read path when the records just past the
// requested position are no longer on disk (compaction folded them into
// the snapshot) — or when the position lies beyond the committed log, so
// the caller's idea of the sequence has diverged from this log's. Either
// way incremental tailing is impossible: the caller must resynchronize
// from a snapshot.
var ErrSeqGone = errors.New("catalog: requested log position unavailable")

const (
	walDirName = "wal"
	segPrefix  = "seg-"
	segSuffix  = ".log"
	// frameHeaderLen is the fixed per-record overhead.
	frameHeaderLen = 8
	// maxRecordBytes bounds a single record; a length field beyond it is
	// treated as garbage, not an allocation request.
	maxRecordBytes = 256 << 20

	// defaultReadBatch bounds one opsSince page when the caller passes no
	// limit, so a far-behind follower streams the backlog in chunks
	// instead of one giant response.
	defaultReadBatch = 512

	// DefaultSegmentBytes rotates segments at 4 MiB, keeping individual
	// files small enough that compaction reclaims space promptly.
	DefaultSegmentBytes = 4 << 20

	// maxKeptFrame bounds the frame buffer an append keeps for the next:
	// one grown by a whole-document record is dropped, not held.
	maxKeptFrame = 1 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// WALRecord is one committed write-ahead-log record: a journaled op,
// the sequence the log assigned it, and the cluster epoch it was
// committed under. It is the decoded form of a frame's payload and the
// unit the replication read path (OpsSince) hands to followers, which
// re-journal it at the same sequence and epoch.
type WALRecord struct {
	Seq   uint64
	Epoch uint64
	Op    core.Op
}

// WALStats are the log's observability counters (served under /stats).
type WALStats struct {
	// LastSeq is the sequence of the newest committed record (0 when the
	// log is empty).
	LastSeq uint64 `json:"last_seq"`
	// Epoch is the cluster epoch new appends are stamped with.
	Epoch uint64 `json:"epoch"`
	// Segments is the number of live segment files.
	Segments int `json:"segments"`
	// SizeBytes is the total size of the live segments.
	SizeBytes int64 `json:"size_bytes"`
	// Appends and AppendedBytes count records written by this process.
	Appends       int64 `json:"appends"`
	AppendedBytes int64 `json:"appended_bytes"`
	// Rotations counts segment rollovers by this process.
	Rotations int64 `json:"rotations"`
	// SegmentLimitBytes is the configured rotation threshold — the
	// -wal-segment-bytes knob as the log actually runs it.
	SegmentLimitBytes int64 `json:"segment_limit_bytes"`
	// StrTabEntries is the size of the append-side interned string table
	// for the active segment (0 when the segment is fresh).
	StrTabEntries int `json:"strtab_entries,omitempty"`
	ShipStats
}

// ShipStats count the log pages served (OpsSince, RawOpsSince), those of
// them that began in a closed segment and scanned it from its first
// record, and the segment bytes read for them.
type ShipStats struct {
	ShipPages     int64 `json:"ship_pages"`
	ShipScans     int64 `json:"ship_scans"`
	ShipReadBytes int64 `json:"ship_read_bytes"`
}

// segEntry indexes one committed record of the active segment: where its
// frame starts and the string table its strtab delta extends.
type segEntry struct {
	off int64
	tab codec.TabMark
}

// wal is an open write-ahead log positioned to append.
type wal struct {
	dir      string
	segLimit int64

	mu       sync.Mutex
	f        *os.File // active (last) segment
	fileSize int64
	nextSeq  uint64
	// epoch stamps every append; raised by promotion (raiseEpoch) and by
	// replicated records from a newer primary, never lowered.
	epoch uint64
	// segStarts holds the first sequence of every live segment, sorted;
	// the last entry is the active segment.
	segStarts []uint64
	// sizeBelow is the total size of the non-active segments.
	sizeBelow int64

	appends       int64
	appendedBytes int64
	rotations     int64

	// tab is the append-side string table for the active segment. Every
	// record's delta extends it; rotation resets it so each segment's
	// deltas rebuild the table from zero, and recovery reseeds it by
	// replaying the reopened last segment.
	tab codec.SharedStrings
	// index has one entry per committed record of the active segment, in
	// order, and tabMark is tab's mark. Appends extend both once durable,
	// recovery's scan rebuilds them, rotation starts a fresh slice (a
	// reader keeps the old header past mu). ship is guarded by mu.
	index   []segEntry
	tabMark codec.TabMark
	ship    ShipStats
	// frame is the buffer every append encodes its frame into, reused.
	frame []byte
}

func segName(start uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, start, segSuffix)
}

func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	hexpart := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
	if len(hexpart) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(hexpart, 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// listSegments returns the live segment start sequences in order.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var starts []uint64
	for _, e := range entries {
		if s, ok := parseSegName(e.Name()); ok && !e.IsDir() {
			starts = append(starts, s)
		}
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	return starts, nil
}

// recoverWAL opens (creating if needed) the log under dir, replays every
// committed record with sequence > after through fn in order, truncates a
// torn tail, and returns the log positioned to append. A replay error
// from fn aborts recovery. snapEpoch is the epoch recorded in the
// snapshot manifest (0 for pre-epoch snapshots); the recovered log's
// epoch is the maximum of snapEpoch and the last committed record's
// epoch, so a node resumes appending in the newest epoch it ever
// witnessed. Records past the snapshot position carrying an epoch below
// snapEpoch — or any epoch regression along the log — refuse to load.
func recoverWAL(dir string, segLimit int64, after uint64, snapEpoch uint64, fn func(WALRecord) error) (*wal, error) {
	if segLimit <= 0 {
		segLimit = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	starts, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	w := &wal{dir: dir, segLimit: segLimit, segStarts: starts, epoch: snapEpoch}
	// Fresh log: create the first segment, numbering records after the
	// snapshot (after+1), so replay watermarks stay monotonic.
	if len(starts) == 0 {
		return w, w.openSegmentLocked(after + 1)
	}
	next := starts[0]
	// epochSeen is the high-water epoch across the whole log; epochs may
	// only rise record to record (segment boundaries included).
	var epochSeen uint64
	// replayTab replays each segment's strtab deltas; after the loop it
	// holds the last segment's cumulative table, which seeds the append
	// side so the next record's delta continues where the log left off.
	var replayTab codec.StrTab
	var index []segEntry
	for i, start := range starts {
		if start != next {
			return nil, fmt.Errorf("%w: segment %s does not continue at sequence %d", ErrCorrupt, segName(start), next)
		}
		last := i == len(starts)-1
		n, size, err := replaySegment(filepath.Join(dir, segName(start)), start, last, after, snapEpoch, &epochSeen, &replayTab, &index, fn)
		if err != nil {
			return nil, err
		}
		next = start + n
		if last {
			w.fileSize = size
		} else {
			w.sizeBelow += size
		}
	}
	w.nextSeq = next
	if epochSeen > w.epoch {
		w.epoch = epochSeen
	}
	if next <= after {
		// The log ends at or before the snapshot (its tail segments were
		// removed out of band). Every record on disk is covered by the
		// snapshot, so drop the old segments outright — leaving them
		// would put a sequence gap in front of the fresh segment and
		// fail the dense-continuation check at the next open — and
		// resume numbering after the snapshot so future records are
		// replayed, not skipped.
		for _, start := range w.segStarts {
			if err := os.Remove(filepath.Join(dir, segName(start))); err != nil {
				return nil, err
			}
		}
		if err := syncDir(dir); err != nil {
			return nil, err
		}
		w.segStarts = nil
		w.sizeBelow = 0
		w.fileSize = 0
		w.nextSeq = after + 1
		return w, w.openSegmentLocked(after + 1)
	}
	// Reopen the last segment for appending (replaySegment truncated any
	// torn tail already). The append-side table resumes from the
	// segment's committed deltas, so the next record's base matches
	// what a future recovery will have replayed.
	for _, s := range replayTab.Strings() {
		w.tab.Intern(s)
	}
	w.index, w.tabMark = index, replayTab.Mark()
	f, err := os.OpenFile(filepath.Join(dir, segName(starts[len(starts)-1])), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	w.f = f
	return w, nil
}

// replaySegment scans one segment file, invoking fn for every committed
// record with sequence > after. It verifies the sequence numbering is
// dense starting at start and that epochs never regress (epochSeen is
// the running high-water mark, carried across segments by the caller).
// For the last segment a short or CRC-failing frame is treated as the
// torn tail and truncated away; anywhere else it is corruption. A
// CRC-valid frame whose payload does not decode — another layout, a
// removed op kind (errRemovedOp), a damaged body — is corruption in every
// segment: it was committed, so truncating it would drop an acknowledged
// op. It returns the number of
// committed records and the (post-truncation) file size, and leaves the
// segment's index (see wal.index) in *index.
func replaySegment(path string, start uint64, isLast bool, after uint64, snapEpoch uint64, epochSeen *uint64, tab *codec.StrTab, index *[]segEntry, fn func(WALRecord) error) (records uint64, size int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, err
	}
	// Strtab deltas are segment-scoped: every segment rebuilds from zero.
	tab.Reset()
	*index = (*index)[:0]
	off := 0
	torn := func(reason string) (uint64, int64, error) {
		if !isLast {
			return 0, 0, fmt.Errorf("%w: %s at offset %d of %s (not the log tail)", ErrCorrupt, reason, off, filepath.Base(path))
		}
		if err := os.Truncate(path, int64(off)); err != nil {
			return 0, 0, fmt.Errorf("catalog: truncating torn tail of %s: %w", filepath.Base(path), err)
		}
		return records, int64(off), nil
	}
	seq := start
	for off < len(data) {
		if len(data)-off < frameHeaderLen {
			return torn("short frame header")
		}
		length := binary.LittleEndian.Uint32(data[off:])
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if length == 0 || length > maxRecordBytes {
			return torn("implausible record length")
		}
		if len(data)-off-frameHeaderLen < int(length) {
			return torn("short record payload")
		}
		payload := data[off+frameHeaderLen : off+frameHeaderLen+int(length)]
		if crc32.Checksum(payload, crcTable) != sum {
			return torn("checksum mismatch")
		}
		// The frame is committed: a payload this build cannot decode is
		// corruption, never a torn tail to cut.
		before := tab.Mark()
		e, err := DecodeWALRecordShared(payload, tab)
		if err != nil {
			return 0, 0, fmt.Errorf("%w: %w at offset %d of %s", ErrCorrupt, err, off, filepath.Base(path))
		}
		*index = append(*index, segEntry{int64(off), before})
		if e.Seq != seq {
			return 0, 0, fmt.Errorf("%w: record sequence %d where %d expected in %s", ErrCorrupt, e.Seq, seq, filepath.Base(path))
		}
		if e.Epoch < *epochSeen {
			return 0, 0, fmt.Errorf("%w: record %d regresses from epoch %d to %d in %s", ErrCorrupt, e.Seq, *epochSeen, e.Epoch, filepath.Base(path))
		}
		*epochSeen = e.Epoch
		if e.Seq > after {
			// Records past the snapshot position must be at least as new as
			// the manifest epoch: the manifest is only ever written after
			// the epoch it names was already stamping appends.
			if e.Epoch < snapEpoch {
				return 0, 0, fmt.Errorf("%w: record %d at epoch %d predates manifest epoch %d in %s", ErrCorrupt, e.Seq, e.Epoch, snapEpoch, filepath.Base(path))
			}
			if fn != nil {
				if err := fn(e); err != nil {
					return 0, 0, fmt.Errorf("catalog: replaying op %d: %w", e.Seq, err)
				}
			}
		}
		seq++
		records++
		off += frameHeaderLen + int(length)
	}
	return records, int64(off), nil
}

// openSegmentLocked starts a fresh segment whose first record will carry
// seq. Callers hold mu (or have exclusive access during recovery).
func (w *wal) openSegmentLocked(seq uint64) error {
	path := filepath.Join(w.dir, segName(seq))
	// O_APPEND matters beyond convention: after a failed append the file
	// is truncated back to the last committed record, and only append
	// mode guarantees the next write lands at that new end instead of at
	// the stale fd offset (which would leave a zero-filled hole that
	// recovery misreads as the torn tail).
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	// The segment must itself survive a crash before anything in it can.
	// On failure the just-created file must go too: appends continue in
	// the old segment, and an orphan whose name does not continue the
	// sequence would fail the dense-continuation check at the next open.
	if err := f.Sync(); err != nil {
		f.Close()
		_ = os.Remove(path)
		return err
	}
	if err := syncDir(w.dir); err != nil {
		f.Close()
		_ = os.Remove(path)
		return err
	}
	if w.f != nil {
		w.f.Close()
		w.sizeBelow += w.fileSize
	}
	w.f = f
	w.fileSize = 0
	w.segStarts = append(w.segStarts, seq)
	if w.nextSeq == 0 {
		w.nextSeq = seq
	}
	return nil
}

// append frames, writes and fsyncs one op, returning its sequence. The
// record is durable when append returns nil.
func (w *wal) append(op core.Op) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	seq := w.nextSeq
	rec := WALRecord{Seq: seq, Epoch: w.epoch, Op: op}
	// Any failure past the encode must roll the interning table back to
	// its pre-record length: the delta the failed record carried never
	// became durable, so the next record's base must not account for it.
	prevTabLen := w.tab.Len()
	frame, err := appendWALRecord(append(w.frame[:0], make([]byte, frameHeaderLen)...), &rec, &w.tab)
	if err != nil {
		return 0, err
	}
	if cap(frame) <= maxKeptFrame {
		w.frame = frame
	}
	payload := frame[frameHeaderLen:]
	if len(payload) > maxRecordBytes {
		w.tab.Truncate(prevTabLen)
		return 0, fmt.Errorf("catalog: op record of %d bytes exceeds the %d byte limit", len(payload), maxRecordBytes)
	}
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, crcTable))
	if _, err := w.f.Write(frame); err != nil {
		// Claw the partial frame back so the in-memory offset stays true;
		// if even that fails recovery will truncate the torn tail.
		_ = w.f.Truncate(w.fileSize)
		w.tab.Truncate(prevTabLen)
		return 0, err
	}
	if err := w.f.Sync(); err != nil {
		// The frame may be fully written (just not durable). It must not
		// linger: the next append would reuse seq and a later recovery
		// would reject the duplicate as corruption rather than a torn
		// tail. Truncate back to the last committed record.
		_ = w.f.Truncate(w.fileSize)
		w.tab.Truncate(prevTabLen)
		return 0, err
	}
	w.index = append(w.index, segEntry{w.fileSize, w.tabMark})
	w.tabMark = w.tabMark.Extend(w.tab.Strings()[prevTabLen:])
	w.fileSize += int64(len(frame))
	w.nextSeq++
	w.appends++
	w.appendedBytes += int64(len(frame))
	if w.fileSize >= w.segLimit {
		if err := w.openSegmentLocked(w.nextSeq); err != nil {
			// Rotation failure is not fatal: the active segment keeps
			// accepting appends beyond the soft limit.
			return seq, nil
		}
		w.rotations++
		// A fresh segment starts a fresh table: its first record's delta
		// is based at 0, keeping every segment self-contained.
		w.tab.Reset()
		w.index, w.tabMark = nil, codec.TabMark{}
	}
	return seq, nil
}

// dropThrough removes segments whose records all have sequence <= seq
// (after a snapshot made them redundant). The active segment is never
// removed. Returns the number of segments deleted.
func (w *wal) dropThrough(seq uint64) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	removed := 0
	for len(w.segStarts) > 1 && w.segStarts[1] <= seq+1 {
		path := filepath.Join(w.dir, segName(w.segStarts[0]))
		info, _ := os.Stat(path)
		if err := os.Remove(path); err != nil {
			return removed, err
		}
		if info != nil {
			w.sizeBelow -= info.Size()
		}
		w.segStarts = w.segStarts[1:]
		removed++
	}
	if removed > 0 {
		if err := syncDir(w.dir); err != nil {
			return removed, err
		}
	}
	return removed, nil
}

// RawWALRecord is one committed log record in its on-disk form: the
// position and epoch (peeked from the payload header) plus the exact
// payload bytes inside the CRC envelope. The raw form is what the
// binary replication wire ships — a record travels from the primary's
// disk to the follower without an intermediate decode/re-encode — and
// DecodeWALRecord turns Payload back into a WALRecord on the other end.
type RawWALRecord struct {
	Seq     uint64
	Epoch   uint64
	Payload []byte
}

// opsSince returns up to limit committed records with sequence > after,
// in order, decoded. It is rawOpsSince plus a record decode, for callers
// that need the structured form. The strtab prefix
// rawOpsSince reports seeds the decode table, so a page starting
// mid-segment resolves shared records exactly as a follower would.
func (w *wal) opsSince(after uint64, limit int) ([]WALRecord, error) {
	raws, prefix, err := w.rawOpsSince(after, limit, codec.TabMark{})
	if err != nil || raws == nil {
		return nil, err
	}
	var tab codec.StrTab
	if err := tab.Apply(0, prefix); err != nil {
		return nil, err
	}
	out := make([]WALRecord, len(raws))
	for i := range raws {
		rec, err := DecodeWALRecordShared(raws[i].Payload, &tab)
		if err != nil {
			return nil, fmt.Errorf("%w: undecodable record %d: %v", ErrCorrupt, raws[i].Seq, err)
		}
		out[i] = rec
	}
	return out, nil
}

// rawOpsSince is the primary half of log shipping: up to limit committed
// records with sequence > after, in order, as raw payload bytes, plus
// the strtab prefix — the cumulative string table built by the records
// of the first contributing segment that the page skips (seq <= after).
// A consumer seeds its decode table with the prefix; the shipped
// records' own embedded deltas carry it forward from there, including
// across segment boundaries (a base-0 delta resets it). The prefix is
// empty when the page starts at a segment boundary. It fails with
// ErrSeqGone when the range is not incrementally servable: the records
// were compacted away, or after lies beyond the committed log. Only the log geometry is snapshotted under mu; the
// disk reads run unlocked, so a follower catching up through gigabytes
// of log never stalls appends. That is safe because closed segments are
// immutable and the active segment's committed prefix (fileSize at
// snapshot time) never changes — any integrity failure inside those
// bounds is ErrCorrupt, never a torn tail. A segment deleted between
// snapshot and read (compaction racing us) reports ErrSeqGone, exactly
// as if compaction had won the race outright.
//
// A page that starts inside the active segment — where every caught-up
// follower reads — costs what it ships: the index gives the byte range of
// exactly the frames wanted (limit bounds the read) and the append-side
// table the prefix, copied under mu unless have, the mark of the table
// the consumer says it holds, is the first record's: then the prefix is
// empty. A page that starts in a closed segment scans it from its first
// record through the same reader, replaying the skipped records' deltas.
func (w *wal) rawOpsSince(after uint64, limit int, have codec.TabMark) ([]RawWALRecord, []string, error) {
	if limit <= 0 {
		limit = defaultReadBatch
	}
	w.mu.Lock()
	next := w.nextSeq
	starts := append([]uint64(nil), w.segStarts...)
	activeSize := w.fileSize
	index := w.index
	var prefix []string
	if n := len(starts); n > 0 && starts[n-1] <= after+1 && after+1 < next {
		// A copy: SharedStrings.Reset reuses the array at the next rotation.
		if e := index[after+1-starts[n-1]]; e.tab != have {
			prefix = append(prefix, w.tab.Strings()[:e.tab.Len]...)
		}
	}
	w.mu.Unlock()
	last := next - 1
	if after >= last {
		if after > last {
			return nil, nil, fmt.Errorf("%w: position %d is beyond the committed log (last %d)", ErrSeqGone, after, last)
		}
		return nil, nil, nil
	}
	if len(starts) == 0 || starts[0] > after+1 {
		oldest := next
		if len(starts) > 0 {
			oldest = starts[0]
		}
		return nil, nil, fmt.Errorf("%w: records after %d were compacted away (oldest on disk is %d)", ErrSeqGone, after, oldest)
	}
	var out []RawWALRecord
	var prefixTab codec.StrTab
	var read, scans int64 // scans: 1 once the page has read a closed segment
	for i, start := range starts {
		end := next // the last snapshotted segment covers [start, next)
		if i+1 < len(starts) {
			end = starts[i+1]
		}
		first := max(start, after+1) // first record wanted from this segment
		if first >= end {
			continue
		}
		seq, from, to := start, int64(0), int64(-1) // a closed segment: whole file
		if i == len(starts)-1 {
			seq, from, to = first, index[first-start].off, activeSize
			if k := first - start + uint64(limit-len(out)); k < uint64(len(index)) {
				to = index[k].off
			}
		} else {
			scans = 1
		}
		var scanErr error
		err := readSegment(filepath.Join(w.dir, segName(start)), seq, from, to, &read, func(e RawWALRecord) bool {
			if e.Seq > after {
				if len(out) == 0 && scans > 0 {
					// First shipped record: freeze the skipped records'
					// cumulative table as the page prefix.
					prefix = append([]string(nil), prefixTab.Strings()...)
				}
				out = append(out, e)
			} else {
				// Skipped record: its delta still advances the table the
				// first shipped record's base refers to.
				base, entries, err := peekRecordDelta(e.Payload)
				if err == nil {
					err = prefixTab.Apply(base, entries)
				}
				if err != nil {
					scanErr = fmt.Errorf("%w: bad strtab delta at record %d: %v", ErrCorrupt, e.Seq, err)
					return false
				}
			}
			return len(out) < limit
		})
		if err == nil {
			err = scanErr
		}
		if err != nil {
			if os.IsNotExist(err) {
				return nil, nil, fmt.Errorf("%w: records after %d were compacted away concurrently", ErrSeqGone, after)
			}
			return nil, nil, err
		}
		if len(out) >= limit {
			break
		}
	}
	w.mu.Lock()
	w.ship.ShipPages++
	w.ship.ShipScans += scans
	w.ship.ShipReadBytes += read
	w.mu.Unlock()
	return out, prefix, nil
}

// readSegment scans the committed frames of one segment in order, calling
// fn per raw record until it returns false. It reads bytes [from, to)
// only, adding their number to *read: from is the offset of record seq's
// frame, to a later frame boundary of the committed part (-1: the end of
// the file). Unlike replaySegment this never truncates: every byte
// in range is supposed to be committed, so any bad frame is ErrCorrupt.
// Records are verified by CRC and a header peek, not a full decode —
// shipping payloads stay exactly the bytes on disk. The handed-out
// payload slices alias the segment read buffer; callers may retain them
// (the buffer is fresh per call and never mutated).
func readSegment(path string, seq uint64, from, to int64, read *int64, fn func(RawWALRecord) bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if to < 0 {
		if to, err = f.Seek(0, io.SeekEnd); err != nil {
			return err
		}
	}
	data := make([]byte, to-from)
	if _, err := f.ReadAt(data, from); err != nil {
		return fmt.Errorf("%w: reading bytes %d to %d of %s: %v", ErrCorrupt, from, to, filepath.Base(path), err)
	}
	*read += to - from
	off := 0
	for off < len(data) {
		if len(data)-off < frameHeaderLen {
			return fmt.Errorf("%w: short frame header at offset %d of %s", ErrCorrupt, from+int64(off), filepath.Base(path))
		}
		length := binary.LittleEndian.Uint32(data[off:])
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if length == 0 || length > maxRecordBytes || len(data)-off-frameHeaderLen < int(length) {
			return fmt.Errorf("%w: bad frame at offset %d of %s", ErrCorrupt, from+int64(off), filepath.Base(path))
		}
		payload := data[off+frameHeaderLen : off+frameHeaderLen+int(length)]
		if crc32.Checksum(payload, crcTable) != sum {
			return fmt.Errorf("%w: checksum mismatch at offset %d of %s", ErrCorrupt, from+int64(off), filepath.Base(path))
		}
		rseq, epoch, err := peekRecordHeader(payload)
		if err != nil {
			return fmt.Errorf("%w: undecodable record at offset %d of %s", ErrCorrupt, from+int64(off), filepath.Base(path))
		}
		if rseq != seq {
			return fmt.Errorf("%w: record sequence %d where %d expected in %s", ErrCorrupt, rseq, seq, filepath.Base(path))
		}
		if !fn(RawWALRecord{Seq: rseq, Epoch: epoch, Payload: payload}) {
			return nil
		}
		seq++
		off += frameHeaderLen + int(length)
	}
	return nil
}

// currentEpoch reports the epoch new appends are stamped with.
func (w *wal) currentEpoch() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.epoch
}

// raiseEpoch lifts the append epoch to e. Epochs are fencing tokens:
// they only ever rise, so a stale caller (e below the current epoch) is
// a no-op. Reports whether the epoch changed.
func (w *wal) raiseEpoch(e uint64) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if e <= w.epoch {
		return false
	}
	w.epoch = e
	return true
}

// stats snapshots the counters.
func (w *wal) stats() WALStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return WALStats{
		LastSeq:           w.nextSeq - 1,
		Epoch:             w.epoch,
		Segments:          len(w.segStarts),
		SizeBytes:         w.sizeBelow + w.fileSize,
		Appends:           w.appends,
		AppendedBytes:     w.appendedBytes,
		Rotations:         w.rotations,
		SegmentLimitBytes: w.segLimit,
		StrTabEntries:     w.tab.Len(),
		ShipStats:         w.ship,
	}
}

// close releases the active segment handle. Appends after close fail.
func (w *wal) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// syncDir fsyncs a directory so renames and unlinks inside it survive
// power loss (mirrors store.syncDir; kept private to each package).
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	// Some filesystems refuse fsync on directories (EINVAL); that is a
	// durability gap we cannot close, not an error to fail on.
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, errors.ErrUnsupported) {
		return err
	}
	return nil
}
