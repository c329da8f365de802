// Binary write-ahead-log record encoding. The outer frame — [4B length]
// [4B CRC-32C][payload] — is decided by wal.go; this file owns the
// payload:
//
//	[0x00] [version 1B = 4] [uvarint seq] [uvarint epoch] [strtab delta] [op]
//	op    = [kind 1B] kind-specific fields
//	tree  = [repr 1B = 3] [uvarint length][shared-table arena body]
//	stats = [uvarint count] [uvarint fields] [count × fields uvarints]
//
// The strtab delta extends the segment-cumulative string table (a delta
// based at 0 restarts it), and a tree's tag/text indices resolve against
// that table, so repeated tags across a segment's records are spelled
// once. Version 4, the layout this build writes, carries arena revision 3
// trees; version 3, which earlier builds wrote and this build still reads,
// carries arena revision 2 trees and the stats as a JSON blob. Replay
// recomputes an integrate's stats, so this build writes a stats count of
// 0, and checks, then skips, the counters an older record carries. An
// OpLoad carries the integration count (store.Count) and the feedback
// history as JSON blobs. A payload with another first byte or version is
// a layout this build does not read: decoding refuses it, and recovery
// reports it as corruption instead of truncating it as a torn write.
package catalog

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/integrate"
	"repro/internal/pxml"
	"repro/internal/store"
)

const (
	// walBinaryMarker is the first payload byte of a record.
	walBinaryMarker = 0x00
	// walRecordVersion is the record layout with a JSON stats blob (the
	// second byte, 3), which this build reads and no longer writes.
	walRecordVersion = 3
	// walRecordCompact is the layout this build writes (4).
	walRecordCompact = 4
	// treeReprArenaShared tags every tree field: a shared-table arena body
	// (pxml.BinaryVersionShared or BinaryVersionCompact) whose string
	// indices resolve against the record's cumulative strtab.
	treeReprArenaShared = 3
)

// Op kind codes.
var opKindCodes = map[core.OpKind]byte{
	core.OpIntegrate: 1,
	core.OpBatch:     2,
	core.OpFeedback:  3,
	core.OpNormalize: 4,
	core.OpReplace:   5,
	core.OpLoad:      6,
}

// removedOpKinds names the codes of the async ingest queue's records,
// which earlier builds wrote and this build removed. A committed record
// of either kind is refused by name (errRemovedOp), never replayed and
// never mistaken for a torn write.
var removedOpKinds = map[byte]string{
	7: "enqueue",
	8: "apply-queued",
}

// errRemovedOp marks a record of a removed op kind (removedOpKinds).
var errRemovedOp = errors.New("catalog: record of a removed op kind")

var opKindNames = func() map[byte]core.OpKind {
	m := make(map[byte]core.OpKind, len(opKindCodes))
	for k, v := range opKindCodes {
		m[v] = k
	}
	return m
}()

// EncodeWALRecord renders rec as a record that stands alone: its strtab
// delta is based at 0, so it decodes against any table. The same bytes
// are valid as an on-disk WAL payload and as a replication wire record.
func EncodeWALRecord(rec WALRecord) ([]byte, error) {
	return EncodeWALRecordShared(rec, new(codec.SharedStrings))
}

// EncodeWALRecordShared renders rec with its tree strings interned into
// tab; the entries added by this record travel as a delta between the
// epoch and the op kind. On error tab is rolled back to its pre-call
// length. The caller owns tab's lifecycle — reset it at segment
// boundaries so every segment's deltas rebuild the table from zero.
func EncodeWALRecordShared(rec WALRecord, tab *codec.SharedStrings) ([]byte, error) {
	return appendWALRecord(nil, &rec, tab)
}

// appendWALRecord appends rec's payload to dst in one pass: the op is
// encoded in place, then the strtab delta its trees grew is hoisted in
// front of it.
func appendWALRecord(dst []byte, rec *WALRecord, tab *codec.SharedStrings) ([]byte, error) {
	base := tab.Len()
	dst = append(dst, walBinaryMarker, walRecordCompact)
	dst = codec.AppendUvarint(dst, rec.Seq)
	dst = codec.AppendUvarint(dst, rec.Epoch)
	at := len(dst)
	dst, err := encodeOpBody(dst, rec, tab)
	if err != nil {
		tab.Truncate(base)
		return nil, err
	}
	end := len(dst)
	return hoist(tab.AppendDelta(dst, base), at, end), nil
}

// hoist moves dst[from:] in front of dst[at:from], in place: how a field
// known only once the bytes it precedes are written (a strtab delta, a
// tree's length) gets in front of them without a second buffer.
func hoist(dst []byte, at, from int) []byte {
	n := len(dst) - from
	dst = append(dst, dst[from:]...) // park the field past the end
	copy(dst[at+n:], dst[at:from])
	copy(dst[at:], dst[from+n:])
	return dst[:from+n]
}

// encodeOpBody appends the op kind byte and kind-specific fields; trees
// intern into tab.
func encodeOpBody(dst []byte, rec *WALRecord, tab *codec.SharedStrings) ([]byte, error) {
	kindCode, ok := opKindCodes[rec.Op.Kind]
	if !ok {
		return nil, fmt.Errorf("catalog: cannot encode op kind %q", rec.Op.Kind)
	}
	dst = append(dst, kindCode)
	op := &rec.Op
	var err error
	switch rec.Op.Kind {
	case core.OpIntegrate, core.OpBatch:
		if dst, err = appendSources(dst, op.SourceTrees, tab); err != nil {
			return nil, err
		}
		dst = codec.AppendUvarint(dst, 0) // stats count (see readStats)
	case core.OpFeedback:
		dst = codec.AppendString(dst, op.Query)
		dst = codec.AppendString(dst, op.Value)
		if op.Correct {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
		when, err := op.When.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("catalog: encoding feedback time: %w", err)
		}
		dst = codec.AppendBytes(dst, when)
	case core.OpNormalize:
	case core.OpReplace, core.OpLoad:
		if dst, err = appendTree(dst, op.TreeValue, tab); err != nil {
			return nil, fmt.Errorf("catalog: encoding %s tree: %w", op.Kind, err)
		}
		if op.Kind == core.OpLoad {
			dst = codec.AppendString(dst, op.Schema)
			evs, err := json.Marshal(op.Events)
			if err != nil {
				return nil, err
			}
			dst = codec.AppendBytes(dst, store.Count(op.Integrations).Blob())
			dst = codec.AppendBytes(dst, evs)
		}
	}
	return dst, nil
}

// readStats checks and skips a version 4 record's stats: the entry count
// and, unless it is 0, the counters per entry, then every counter as a
// uvarint.
func readStats(r *codec.Reader) error {
	n := r.Uvarint()
	if n == 0 || r.Err() != nil {
		return r.Err()
	}
	fields := r.Uvarint()
	if err := r.Err(); err != nil {
		return err
	}
	// Every counter costs at least one byte.
	if fields == 0 || n > uint64(r.Len())/fields {
		return fmt.Errorf("%w: implausible stats of %d × %d counters", codec.ErrInvalid, n, fields)
	}
	for i := n * fields; i > 0; i-- {
		r.Uvarint()
	}
	return r.Err()
}

// readStatsBlob checks and skips a version 3 record's JSON stats blob.
func readStatsBlob(r *codec.Reader) error {
	blob := r.Bytes()
	if err := r.Err(); err != nil || len(blob) == 0 {
		return err
	}
	var stats []integrate.Stats
	if err := json.Unmarshal(blob, &stats); err != nil {
		return fmt.Errorf("%w: bad integration stats: %v", codec.ErrInvalid, err)
	}
	return nil
}

// appendSources appends a uvarint-counted list of source tree fields.
func appendSources(dst []byte, trees []*pxml.Tree, tab *codec.SharedStrings) ([]byte, error) {
	dst = codec.AppendUvarint(dst, uint64(len(trees)))
	for i, t := range trees {
		var err error
		if dst, err = appendTree(dst, t, tab); err != nil {
			return nil, fmt.Errorf("catalog: encoding source %d: %w", i+1, err)
		}
	}
	return dst, nil
}

// readSources reads a uvarint-counted list of source tree fields.
func readSources(r *codec.Reader, strs []string, seq uint64) ([]*pxml.Tree, error) {
	n := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	// A tree field costs at least two bytes (repr + length).
	if n == 0 || n > uint64(r.Len())/2+1 {
		return nil, fmt.Errorf("%w: implausible source count %d", codec.ErrInvalid, n)
	}
	trees := make([]*pxml.Tree, n)
	for i := range trees {
		t, err := readTree(r, strs)
		if err != nil {
			return nil, fmt.Errorf("record %d source %d: %w", seq, i+1, err)
		}
		trees[i] = t
	}
	return trees, nil
}

// appendTree appends one tree field, interning its strings into tab.
func appendTree(dst []byte, t *pxml.Tree, tab *codec.SharedStrings) ([]byte, error) {
	if t == nil {
		return nil, fmt.Errorf("op carries no document")
	}
	dst = append(dst, treeReprArenaShared)
	at := len(dst)
	dst = t.AppendBinaryShared(dst, tab)
	end := len(dst)
	return hoist(codec.AppendUvarint(dst, uint64(end-at)), at, end), nil
}

// readTree reads one tree field. strs is the record's cumulative string
// table view the arena's indices resolve against.
func readTree(r *codec.Reader, strs []string) (*pxml.Tree, error) {
	repr := r.Byte()
	body := r.Bytes()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if repr != treeReprArenaShared {
		return nil, fmt.Errorf("%w: unknown tree representation %d", codec.ErrInvalid, repr)
	}
	return pxml.DecodeArenaWith(body, pxml.DecodeArenaOptions{Strings: strs})
}

// checkRecordHeader accepts a payload that starts with the record marker
// and version 3 or 4. Anything else — a JSON record ('{'), an older binary
// version, a newer one — is a layout this build does not read.
func checkRecordHeader(payload []byte) error {
	switch {
	case len(payload) < 2:
		return fmt.Errorf("%w: record payload of %d byte(s)", codec.ErrInvalid, len(payload))
	case payload[0] != walBinaryMarker:
		return fmt.Errorf("%w: record starts with byte %#x, not a version %d record", codec.ErrInvalid, payload[0], walRecordCompact)
	case payload[1] != walRecordVersion && payload[1] != walRecordCompact:
		return fmt.Errorf("%w: unsupported record version %d (want %d or %d)", codec.ErrInvalid, payload[1], walRecordVersion, walRecordCompact)
	}
	return nil
}

// peekRecordHeader extracts (seq, epoch) from a record payload without
// decoding the op body.
func peekRecordHeader(payload []byte) (seq, epoch uint64, err error) {
	if err := checkRecordHeader(payload); err != nil {
		return 0, 0, err
	}
	r := codec.NewReader(payload[2:])
	seq = r.Uvarint()
	epoch = r.Uvarint()
	if err := r.Err(); err != nil {
		return 0, 0, err
	}
	return seq, epoch, nil
}

// peekRecordDelta extracts a record's strtab delta without decoding the
// op body — how the raw shipping path tracks table state across records
// it skips.
func peekRecordDelta(payload []byte) (base uint64, entries []string, err error) {
	if err := checkRecordHeader(payload); err != nil {
		return 0, nil, err
	}
	r := codec.NewReader(payload[2:])
	r.Uvarint() // seq
	r.Uvarint() // epoch
	return codec.DecodeStrTabDelta(r, false)
}

// DecodeWALRecord decodes one WAL payload that stands alone: its strtab
// delta must be based at 0 (the first record of a segment or page, or
// any EncodeWALRecord output); mid-table records need
// DecodeWALRecordShared.
func DecodeWALRecord(payload []byte) (WALRecord, error) {
	var tab codec.StrTab
	return DecodeWALRecordShared(payload, &tab)
}

// DecodeWALRecordShared decodes one WAL payload against the cumulative
// string table tab, which must hold the replayed state of every earlier
// delta in the same segment or page. The record's own delta commits
// into tab only after the whole record decodes — a torn or corrupt
// record leaves tab exactly as it was, keeping replay's table in
// lockstep with the committed log. Arbitrary bytes return an error,
// never panic: decoding runs entirely on the bounds-checked codec.Reader
// and pxml.DecodeArenaWith.
func DecodeWALRecordShared(payload []byte, tab *codec.StrTab) (WALRecord, error) {
	if err := checkRecordHeader(payload); err != nil {
		return WALRecord{}, err
	}
	r := codec.NewReader(payload[2:])
	var rec WALRecord
	rec.Seq = r.Uvarint()
	rec.Epoch = r.Uvarint()
	// The delta is read up front but applied to tab only at the end;
	// until then the record decodes against a combined view.
	base, entries, err := codec.DecodeStrTabDelta(r, false)
	if err != nil {
		return WALRecord{}, err
	}
	var strs []string
	switch {
	case base == 0:
		strs = entries
	case base == uint64(tab.Len()):
		strs = append(tab.Strings()[:base:base], entries...)
	default:
		return WALRecord{}, fmt.Errorf("%w: record %d strtab delta based at %d, table holds %d entries", codec.ErrInvalid, rec.Seq, base, tab.Len())
	}
	code := r.Byte()
	if err := r.Err(); err != nil {
		return WALRecord{}, err
	}
	kind, ok := opKindNames[code]
	if !ok {
		if name, removed := removedOpKinds[code]; removed {
			return WALRecord{}, fmt.Errorf("%w: record %d is an %s record (async ingest queue, removed)", errRemovedOp, rec.Seq, name)
		}
		return WALRecord{}, fmt.Errorf("%w: unknown op kind code", codec.ErrInvalid)
	}
	op := &rec.Op
	op.Kind = kind
	switch kind {
	case core.OpIntegrate, core.OpBatch:
		if op.SourceTrees, err = readSources(r, strs, rec.Seq); err != nil {
			return WALRecord{}, err
		}
		read := readStats
		if payload[1] == walRecordVersion {
			read = readStatsBlob
		}
		if err := read(r); err != nil {
			return WALRecord{}, err
		}
	case core.OpFeedback:
		op.Query = r.String()
		op.Value = r.String()
		op.Correct = r.Byte() == 1
		when := r.Bytes()
		if err := r.Err(); err != nil {
			return WALRecord{}, err
		}
		var ts time.Time
		if err := ts.UnmarshalBinary(when); err != nil {
			return WALRecord{}, fmt.Errorf("%w: bad feedback time: %v", codec.ErrInvalid, err)
		}
		op.When = ts
	case core.OpNormalize:
	case core.OpReplace, core.OpLoad:
		if op.TreeValue, err = readTree(r, strs); err != nil {
			return WALRecord{}, fmt.Errorf("record %d tree: %w", rec.Seq, err)
		}
		if kind == core.OpLoad {
			op.Schema = r.String()
			ints := r.Bytes()
			evs := r.Bytes()
			if err := r.Err(); err != nil {
				return WALRecord{}, err
			}
			if op.Integrations, err = store.ParseCount(ints); err != nil {
				return WALRecord{}, fmt.Errorf("%w: bad integrations: %v", codec.ErrInvalid, err)
			}
			if len(evs) > 0 {
				if err := json.Unmarshal(evs, &op.Events); err != nil {
					return WALRecord{}, fmt.Errorf("%w: bad feedback history: %v", codec.ErrInvalid, err)
				}
			}
		}
	}
	if err := r.Finish(); err != nil {
		return WALRecord{}, err
	}
	// The record decoded in full: commit its delta so the next record in
	// the segment/page decodes against the extended table. (Apply cannot
	// fail here — the base was validated against tab above.)
	if err := tab.Apply(base, entries); err != nil {
		return WALRecord{}, err
	}
	return rec, nil
}
