// The replication wire: GET /dbs/{name}/wal and GET /dbs/{name}/snapshot
// answer a stream of codec frames under one media type, ContentType,
// whatever the request's Accept header says.
//
// WAL page stream:
//
//	H frame  page header: database, since, last_seq, digest, epoch
//	I frame  optional: the interned-string table the first record's
//	         strtab delta is based on — the cumulative deltas of the
//	         same-segment records the page skipped
//	R frame  one record, payload = the binary WAL record bytes
//	         (walrecord.go) — the exact bytes the primary's log holds,
//	         shipped without re-encoding
//	E frame  trailer: record count (truncation detector)
//
// Snapshot stream:
//
//	S frame  header: database, format_version, seq, epoch, digest,
//	         schema, histories (JSON blobs; not hot)
//	I frame  the string table the document's varint refs resolve against
//	T frame  the document as a pxml arena payload
//	E frame  trailer: frame count
package replica

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/catalog"
	"repro/internal/codec"
	"repro/internal/pxml"
)

// ContentType is the media type of the replication wire. A follower
// still sends it as Accept: a primary built before the wire became the
// only one serves it only on request.
const ContentType = "application/x-imprecise-wal2"

// wireVersion is the revision of the frame payload layouts below.
const wireVersion = 1

// appendPageHeader renders the H frame payload for page.
func appendPageHeader(page *WALPage) []byte {
	var hdr []byte
	hdr = codec.AppendString(hdr, page.Database)
	hdr = codec.AppendUvarint(hdr, page.Since)
	hdr = codec.AppendUvarint(hdr, page.LastSeq)
	hdr = codec.AppendString(hdr, page.Digest)
	hdr = codec.AppendUvarint(hdr, page.Epoch)
	return hdr
}

// EncodeWALPage streams page to w as binary frames, encoding each
// decoded record as one that stands alone (its strtab delta based at 0),
// so the page needs no I frame. A primary serving its own log uses
// EncodeRawWALPage, which skips this per-record encode.
func EncodeWALPage(w io.Writer, page *WALPage) error {
	fw := codec.NewFrameWriter(w)
	if err := fw.Write(codec.KindPageHeader, wireVersion, appendPageHeader(page)); err != nil {
		return err
	}
	for i := range page.Records {
		payload, err := catalog.EncodeWALRecord(page.Records[i])
		if err != nil {
			return fmt.Errorf("replica: encoding record %d: %w", page.Records[i].Seq, err)
		}
		if err := fw.Write(codec.KindRecord, wireVersion, payload); err != nil {
			return err
		}
	}
	return fw.Write(codec.KindEnd, wireVersion, codec.AppendUvarint(nil, uint64(len(page.Records))))
}

// EncodeRawWALPage streams a page whose records are raw on-disk payload
// bytes (catalog.RawOpsSince) — the zero-re-encode shipping path. The
// header fields come from page; page.Records is ignored, raws supplies
// the R frames. prefix is the interned-string table the first record's
// strtab delta assumes (RawOpsSince's second result); non-empty, it
// ships as an I frame right after the header.
func EncodeRawWALPage(w io.Writer, page *WALPage, raws []catalog.RawWALRecord, prefix []string) error {
	fw := codec.NewFrameWriter(w)
	if err := fw.Write(codec.KindPageHeader, wireVersion, appendPageHeader(page)); err != nil {
		return err
	}
	if len(prefix) > 0 {
		if err := fw.Write(codec.KindStrTab, codec.StrTabVersion, codec.AppendStrTabPayload(nil, 0, prefix)); err != nil {
			return err
		}
	}
	for i := range raws {
		if err := fw.Write(codec.KindRecord, wireVersion, raws[i].Payload); err != nil {
			return err
		}
	}
	return fw.Write(codec.KindEnd, wireVersion, codec.AppendUvarint(nil, uint64(len(raws))))
}

// DecodeWALPageFrom reads one WAL page stream. A stream that ends before the E trailer — a connection cut mid-page —
// is an error, never a short page. The string table is tab, what the
// stream left behind so far (after an error: reset it); it restarts
// from the optional I frame and advances through each shared record's
// embedded delta, exactly as the primary's log reader would.
func DecodeWALPageFrom(r io.Reader, tab *codec.StrTab) (*WALPage, error) {
	fr := codec.NewFrameReader(r, 0)
	f, err := fr.Read()
	if err != nil {
		return nil, fmt.Errorf("replica: reading page header: %w", err)
	}
	if f.Kind != codec.KindPageHeader {
		return nil, fmt.Errorf("%w: page stream starts with frame %q", codec.ErrInvalid, f.Kind)
	}
	hr := codec.NewReader(f.Payload)
	page := &WALPage{Records: []catalog.WALRecord{}}
	page.Database = hr.String()
	page.Since = hr.Uvarint()
	page.LastSeq = hr.Uvarint()
	page.Digest = hr.String()
	page.Epoch = hr.Uvarint()
	if err := hr.Finish(); err != nil {
		return nil, fmt.Errorf("replica: page header: %w", err)
	}
	sawTab := false
	for {
		f, err := fr.Read()
		if err != nil {
			return nil, fmt.Errorf("replica: page stream cut after %d record(s): %w", len(page.Records), err)
		}
		switch f.Kind {
		case codec.KindStrTab:
			// The prefix table: legal only before the first record (it is
			// what the FIRST record's delta is based on).
			if len(page.Records) > 0 || sawTab {
				return nil, fmt.Errorf("%w: string-table frame after record(s)", codec.ErrInvalid)
			}
			sawTab = true
			base, entries, err := codec.DecodeStrTabPayload(f.Payload, false)
			if err != nil {
				return nil, fmt.Errorf("replica: page string table: %w", err)
			}
			if err := tab.Apply(base, entries); err != nil {
				return nil, fmt.Errorf("replica: page string table: %w", err)
			}
		case codec.KindRecord:
			rec, err := catalog.DecodeWALRecordShared(f.Payload, tab)
			if err != nil {
				return nil, fmt.Errorf("replica: record %d of page: %w", len(page.Records)+1, err)
			}
			page.Records = append(page.Records, rec)
		case codec.KindEnd:
			tr := codec.NewReader(f.Payload)
			n := tr.Uvarint()
			if err := tr.Finish(); err != nil {
				return nil, fmt.Errorf("replica: page trailer: %w", err)
			}
			if n != uint64(len(page.Records)) {
				return nil, fmt.Errorf("%w: page trailer says %d records, stream carried %d", codec.ErrInvalid, n, len(page.Records))
			}
			return page, nil
		default:
			return nil, fmt.Errorf("%w: unexpected frame %q in page stream", codec.ErrInvalid, f.Kind)
		}
	}
}

// DecodeWALPage reads a page that stands alone: its table starts empty.
func DecodeWALPage(r io.Reader) (*WALPage, error) {
	return DecodeWALPageFrom(r, new(codec.StrTab))
}

// appendSnapshotHeader renders the S frame payload.
func appendSnapshotHeader(payload *SnapshotPayload) ([]byte, error) {
	var hdr []byte
	hdr = codec.AppendString(hdr, payload.Database)
	hdr = codec.AppendUvarint(hdr, uint64(payload.FormatVersion))
	hdr = codec.AppendUvarint(hdr, payload.Seq)
	hdr = codec.AppendUvarint(hdr, payload.Epoch)
	hdr = codec.AppendString(hdr, payload.Digest)
	hdr = codec.AppendString(hdr, payload.Schema)
	ints, err := marshalHistory(payload.Integrations)
	if err != nil {
		return nil, err
	}
	evs, err := marshalHistory(payload.Feedback)
	if err != nil {
		return nil, err
	}
	hdr = codec.AppendBytes(hdr, ints)
	hdr = codec.AppendBytes(hdr, evs)
	return hdr, nil
}

// EncodeSnapshotShared streams payload to w, its Tree as a
// shared-dictionary arena with the string table in a separate I frame —
// the same split as store v5, so the tree body deduplicates repeated
// tags and text against one dictionary.
func EncodeSnapshotShared(w io.Writer, payload *SnapshotPayload) error {
	tree := payload.Tree
	if tree == nil {
		return fmt.Errorf("replica: binary snapshot needs the decoded tree")
	}
	fw := codec.NewFrameWriter(w)
	hdr, err := appendSnapshotHeader(payload)
	if err != nil {
		return err
	}
	if err := fw.Write(codec.KindSnapshotHeader, wireVersion, hdr); err != nil {
		return err
	}
	var tab codec.SharedStrings
	body := tree.AppendBinaryShared(nil, &tab)
	if err := fw.Write(codec.KindStrTab, codec.StrTabVersion, tab.AppendDelta(nil, 0)); err != nil {
		return err
	}
	if err := fw.Write(codec.KindTree, pxml.BinaryVersionShared, body); err != nil {
		return err
	}
	return fw.Write(codec.KindEnd, wireVersion, codec.AppendUvarint(nil, 3))
}

// marshalHistory renders a history slice as a JSON blob field ("" for
// empty — histories are cold data, not worth a binary layout).
func marshalHistory(v any) ([]byte, error) {
	return json.Marshal(v)
}

// unmarshalHistory fills a history slice from its JSON blob field.
func unmarshalHistory(data []byte, v any) error {
	if len(data) == 0 {
		return nil
	}
	return json.Unmarshal(data, v)
}

// DecodeSnapshot reads one snapshot stream, returning the payload with
// its decoded Tree.
func DecodeSnapshot(r io.Reader) (*SnapshotPayload, error) {
	fr := codec.NewFrameReader(r, 0)
	f, err := fr.Read()
	if err != nil {
		return nil, fmt.Errorf("replica: reading snapshot header: %w", err)
	}
	if f.Kind != codec.KindSnapshotHeader {
		return nil, fmt.Errorf("%w: snapshot stream starts with frame %q", codec.ErrInvalid, f.Kind)
	}
	hr := codec.NewReader(f.Payload)
	payload := &SnapshotPayload{}
	payload.Database = hr.String()
	payload.FormatVersion = int(hr.Uvarint())
	payload.Seq = hr.Uvarint()
	payload.Epoch = hr.Uvarint()
	payload.Digest = hr.String()
	payload.Schema = hr.String()
	ints := hr.Bytes()
	evs := hr.Bytes()
	// Earlier primaries append the async ingest queue's pending sources
	// as an optional last field. The queue was removed: an empty or null
	// one is skipped, a non-empty one refused.
	var pend []byte
	if hr.Len() > 0 {
		pend = hr.Bytes()
	}
	if err := hr.Finish(); err != nil {
		return nil, fmt.Errorf("replica: snapshot header: %w", err)
	}
	if err := unmarshalHistory(ints, &payload.Integrations); err != nil {
		return nil, fmt.Errorf("replica: snapshot integrations: %w", err)
	}
	if err := unmarshalHistory(evs, &payload.Feedback); err != nil {
		return nil, fmt.Errorf("replica: snapshot feedback: %w", err)
	}
	var pending []json.RawMessage
	if err := unmarshalHistory(pend, &pending); err != nil {
		return nil, fmt.Errorf("replica: snapshot pending queue: %w", err)
	}
	if len(pending) > 0 {
		return nil, fmt.Errorf("replica: snapshot of %q carries %d pending ticket(s) of the async ingest queue, which this build removed", payload.Database, len(pending))
	}
	f, err = fr.Read()
	if err != nil {
		return nil, fmt.Errorf("replica: snapshot stream cut before string table: %w", err)
	}
	if f.Kind != codec.KindStrTab {
		return nil, fmt.Errorf("%w: expected string-table frame, got %q", codec.ErrInvalid, f.Kind)
	}
	base, strs, err := codec.DecodeStrTabPayload(f.Payload, false)
	if err != nil || base != 0 {
		return nil, fmt.Errorf("%w: snapshot string table (base %d): %v", codec.ErrInvalid, base, err)
	}
	if f, err = fr.Read(); err != nil {
		return nil, fmt.Errorf("replica: snapshot stream cut before document: %w", err)
	}
	if f.Kind != codec.KindTree {
		return nil, fmt.Errorf("%w: expected document frame, got %q", codec.ErrInvalid, f.Kind)
	}
	tree, err := pxml.DecodeArenaWith(f.Payload, pxml.DecodeArenaOptions{Strings: strs})
	if err != nil {
		return nil, fmt.Errorf("replica: snapshot document: %w", err)
	}
	payload.Tree = tree
	f, err = fr.Read()
	if err != nil {
		return nil, fmt.Errorf("replica: snapshot stream cut before trailer: %w", err)
	}
	if f.Kind != codec.KindEnd {
		return nil, fmt.Errorf("%w: expected trailer frame, got %q", codec.ErrInvalid, f.Kind)
	}
	return payload, nil
}
