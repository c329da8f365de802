// CRC-32C frames: the self-describing envelope every binary payload in
// the system travels in. A frame names its kind (what the payload is)
// and version (which revision of that payload layout), carries a
// uvarint-prefixed payload, and ends in a CRC-32C (Castagnoli) checksum
// of kind, version and payload — so a decoder can tell truncation and
// bit rot from data it merely does not understand.
//
// Layout (little endian):
//
//	[magic 0xC6] [kind 1B] [version 1B] [uvarint payload length]
//	[payload] [CRC-32C 4B over kind|version|payload]
package codec

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// FrameMagic is the first byte of every frame. It is deliberately not
// printable ASCII, so a JSON payload (which starts with '{' or a space)
// can never be confused for a frame.
const FrameMagic = 0xC6

// Registered frame kinds. The registry is global across formats so a
// payload routed to the wrong decoder is rejected by kind, not
// misparsed.
const (
	// KindDocument is a pxml document in flat arena form (store v4
	// snapshot documents).
	KindDocument byte = 'D'
	// KindRecord is one write-ahead-log record payload, in exactly the
	// encoding the WAL frames on disk (wire replication ships these).
	KindRecord byte = 'R'
	// KindPageHeader opens a streamed WAL page (database, positions,
	// digest, epoch).
	KindPageHeader byte = 'H'
	// KindSnapshotHeader opens a streamed snapshot bootstrap (manifest
	// metadata and histories).
	KindSnapshotHeader byte = 'S'
	// KindTree is a pxml document in flat arena form inside a snapshot
	// stream.
	KindTree byte = 'T'
	// KindEnd closes a stream; its payload is the uvarint count of the
	// frames that preceded it, so a truncated stream is detectable even
	// at a frame boundary.
	KindEnd byte = 'E'
	// KindStrTab is an interned-string-table delta (strtab.go): the
	// shared dictionary that store documents, WAL records and
	// replication pages resolve their varint string refs against.
	KindStrTab byte = 'I'
)

// MaxFramePayload bounds a single frame payload (matches the WAL's
// per-record limit). A declared length beyond it is treated as garbage,
// not an allocation request.
const MaxFramePayload = 256 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func frameCRC(kind, version byte, payload []byte) uint32 {
	crc := crc32.Update(0, crcTable, []byte{kind, version})
	return crc32.Update(crc, crcTable, payload)
}

// Frame is one decoded frame. Payload aliases the decode input for
// ParseFrame and is freshly allocated for FrameReader.
type Frame struct {
	Kind    byte
	Version byte
	Payload []byte
}

// AppendFrame appends a frame carrying payload.
func AppendFrame(dst []byte, kind, version byte, payload []byte) []byte {
	dst = append(dst, FrameMagic, kind, version)
	dst = AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, frameCRC(kind, version, payload))
}

// ParseFrame decodes one frame from the front of data, returning it and
// the bytes that follow. The payload aliases data.
func ParseFrame(data []byte) (Frame, []byte, error) {
	r := NewReader(data)
	if m := r.Byte(); r.Err() == nil && m != FrameMagic {
		return Frame{}, nil, fmt.Errorf("%w: bad frame magic 0x%02x", ErrInvalid, m)
	}
	kind := r.Byte()
	version := r.Byte()
	n := r.Uvarint()
	if r.Err() != nil {
		return Frame{}, nil, r.Err()
	}
	if n > MaxFramePayload {
		return Frame{}, nil, fmt.Errorf("%w: frame payload of %d bytes exceeds the %d byte limit", ErrInvalid, n, MaxFramePayload)
	}
	if n+4 > uint64(r.Len()) {
		return Frame{}, nil, fmt.Errorf("%w: truncated frame (%d payload bytes declared, %d present)", ErrInvalid, n, r.Len())
	}
	off := len(data) - r.Len()
	payload := data[off : off+int(n) : off+int(n)]
	sum := binary.LittleEndian.Uint32(data[off+int(n):])
	if frameCRC(kind, version, payload) != sum {
		return Frame{}, nil, fmt.Errorf("%w: frame checksum mismatch", ErrInvalid)
	}
	return Frame{Kind: kind, Version: version, Payload: payload}, data[off+int(n)+4:], nil
}

// FrameWriter writes frames to a stream. It buffers one frame at a time
// and reuses the buffer across writes.
type FrameWriter struct {
	w   io.Writer
	buf []byte
}

// NewFrameWriter returns a FrameWriter over w.
func NewFrameWriter(w io.Writer) *FrameWriter {
	return &FrameWriter{w: w}
}

// Write emits one frame. The frame is handed to the underlying writer in
// a single Write call, so chunked HTTP responses flush whole frames.
func (fw *FrameWriter) Write(kind, version byte, payload []byte) error {
	fw.buf = AppendFrame(fw.buf[:0], kind, version, payload)
	_, err := fw.w.Write(fw.buf)
	return err
}

// FrameReader reads frames from a stream. A clean end between frames is
// io.EOF; an end inside a frame is io.ErrUnexpectedEOF. Declared payload
// lengths beyond max (MaxFramePayload when max <= 0) are rejected before
// any allocation.
type FrameReader struct {
	r   *bufio.Reader
	max uint64
}

// NewFrameReader returns a FrameReader over r.
func NewFrameReader(r io.Reader, max int) *FrameReader {
	if max <= 0 {
		max = MaxFramePayload
	}
	return &FrameReader{r: bufio.NewReader(r), max: uint64(max)}
}

// Read decodes the next frame. The returned payload is freshly
// allocated and owned by the caller.
func (fr *FrameReader) Read() (Frame, error) {
	m, err := fr.r.ReadByte()
	if err != nil {
		return Frame{}, err // io.EOF here is a clean stream end
	}
	if m != FrameMagic {
		return Frame{}, fmt.Errorf("%w: bad frame magic 0x%02x", ErrInvalid, m)
	}
	var hdr [2]byte
	if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
		return Frame{}, unexpected(err)
	}
	n, err := binary.ReadUvarint(fr.r)
	if err != nil {
		return Frame{}, unexpected(err)
	}
	if n > fr.max {
		return Frame{}, fmt.Errorf("%w: frame payload of %d bytes exceeds the %d byte limit", ErrInvalid, n, fr.max)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		return Frame{}, unexpected(err)
	}
	var sum [4]byte
	if _, err := io.ReadFull(fr.r, sum[:]); err != nil {
		return Frame{}, unexpected(err)
	}
	if frameCRC(hdr[0], hdr[1], payload) != binary.LittleEndian.Uint32(sum[:]) {
		return Frame{}, fmt.Errorf("%w: frame checksum mismatch", ErrInvalid)
	}
	return Frame{Kind: hdr[0], Version: hdr[1], Payload: payload}, nil
}

func unexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
