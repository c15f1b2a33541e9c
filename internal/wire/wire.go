// Package wire is the campaign fleet's compact binary data plane: a
// varint-field codec for inject.Outcome and inject.Tally, CRC-framed
// records in the result store's WAL idiom (uint32 length + uint32 CRC32,
// little-endian), and the length-prefixed message set the coordinator and
// remote workers speak over persistent TCP connections.
//
// The JSON encodings stay on the control plane (campaign specs, status,
// reports); wire carries only the hot path — hundreds of thousands of
// outcomes per second — so every decoder here is written to be fed
// hostile bytes: all lengths are bounded, every slice access is checked,
// and damage is reported as an error or a skip count, never a panic
// (FuzzWireDecode holds it to that).
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

const (
	// ProtoVersion is the fleet protocol version spoken in Hello/Welcome.
	// A coordinator refuses mismatching workers instead of guessing.
	// Version 2 added the fault-site taxonomy: an optional trailing site
	// block (flagHasSite) on outcome records and trailing BySite/ByVCPU
	// sections on tallies. Version 3 added the trailing per-site prune
	// rows on tallies (the coordinator cross-checks worker tallies with
	// DeepEqual, so the per-site provenance counters must ride the wire
	// bit-exact). Version 4 added Welcome.Model: the coordinator trains
	// the campaign's transition model once and ships it, and workers no
	// longer train.
	ProtoVersion = 4
	// FrameHeader is the frame prefix: uint32 payload length + uint32
	// CRC32 (IEEE) of the payload, both little-endian — the same framing
	// the result store's WAL uses, so a record frame produced here can be
	// appended to a WAL segment verbatim.
	FrameHeader = 8
	// MaxFrame bounds a frame's claimed payload length. A larger claim
	// means the framing itself is corrupt (or hostile) and the stream or
	// segment cannot be resynchronized past it.
	MaxFrame = 1 << 24
)

// ErrFraming reports unrecoverable framing damage: a torn header, a
// length field beyond MaxFrame, or a truncated payload. Nothing after the
// damage can be trusted, so stream readers treat it as fatal.
var ErrFraming = fmt.Errorf("wire: framing corrupt")

// ErrChecksum reports a payload whose CRC does not match its header. The
// framing is intact, so batch walkers skip exactly the damaged record.
var ErrChecksum = fmt.Errorf("wire: checksum mismatch")

// AppendFrame appends one CRC frame (header + payload) to dst.
func AppendFrame(dst, payload []byte) []byte {
	dst, start := openFrame(dst)
	return closeFrame(append(dst, payload...), start)
}

// openFrame reserves a frame header at the end of dst and returns where
// it starts; the caller appends the payload after it and closeFrame
// fills the header in.
func openFrame(dst []byte) ([]byte, int) {
	var hdr [FrameHeader]byte
	return append(dst, hdr[:]...), len(dst)
}

// closeFrame writes the length and CRC of everything appended after the
// header openFrame reserved at start.
func closeFrame(dst []byte, start int) []byte {
	payload := dst[start+FrameHeader:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(payload))
	return dst
}

// SplitFrame slices one frame off the front of b, verifying length and
// CRC. It returns the payload (aliasing b) and the remainder. A framing
// error is ErrFraming; a payload whose checksum fails is ErrChecksum and
// rest still advances past the damaged frame, so callers walking a
// record block can skip exactly the damaged record.
func SplitFrame(b []byte) (payload, rest []byte, err error) {
	if len(b) < FrameHeader {
		return nil, nil, ErrFraming
	}
	length := binary.LittleEndian.Uint32(b[0:])
	sum := binary.LittleEndian.Uint32(b[4:])
	if length > MaxFrame {
		return nil, nil, ErrFraming
	}
	end := FrameHeader + int(length)
	if end > len(b) {
		return nil, nil, ErrFraming
	}
	payload, rest = b[FrameHeader:end], b[end:]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, rest, ErrChecksum
	}
	return payload, rest, nil
}

// Reader reads CRC frames off a byte stream, reusing one buffer. The
// returned payload is valid only until the next call. Any framing or
// checksum failure is fatal for a stream (unlike a WAL segment there is
// no record boundary to resync on), so callers drop the connection.
type Reader struct {
	br  *bufio.Reader
	buf []byte
}

// NewReader wraps a stream in a frame reader.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 64<<10)}
}

// Next reads one frame and returns its payload. io.EOF at a frame
// boundary is returned as io.EOF; EOF inside a frame is ErrFraming.
func (r *Reader) Next() ([]byte, error) {
	var hdr [FrameHeader]byte
	if _, err := io.ReadFull(r.br, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, ErrFraming
	}
	length := binary.LittleEndian.Uint32(hdr[0:])
	sum := binary.LittleEndian.Uint32(hdr[4:])
	if length > MaxFrame {
		return nil, ErrFraming
	}
	if cap(r.buf) < int(length) {
		r.buf = make([]byte, length)
	}
	payload := r.buf[:length]
	if _, err := io.ReadFull(r.br, payload); err != nil {
		return nil, ErrFraming
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, ErrChecksum
	}
	return payload, nil
}

// --- varint primitives -------------------------------------------------
//
// Unsigned fields ride plain uvarints; signed fields ride zigzag so small
// negatives (DetectedAt's -1 sentinel) stay one byte. Decoders consume
// from the front of a slice and return the rest; n<=0 from binary.Uvarint
// (empty or overlong input) surfaces as an error, never a panic.

func appendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

func appendInt(dst []byte, v int64) []byte {
	return binary.AppendUvarint(dst, zigzag(v))
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

var errTruncated = fmt.Errorf("wire: truncated field")

func consumeUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, errTruncated
	}
	return v, b[n:], nil
}

func consumeInt(b []byte) (int64, []byte, error) {
	u, rest, err := consumeUvarint(b)
	return unzigzag(u), rest, err
}

func consumeByte(b []byte) (byte, []byte, error) {
	if len(b) < 1 {
		return 0, nil, errTruncated
	}
	return b[0], b[1:], nil
}

// maxString bounds every length-prefixed string in the codec (benchmark
// names, symbols, technique names). Real values are tens of bytes; the
// cap keeps a corrupt length from turning into a giant allocation.
const maxString = 256

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// consumeStringBytes returns the raw bytes of a length-prefixed string
// without allocating; callers intern or copy as needed.
func consumeStringBytes(b []byte) ([]byte, []byte, error) {
	n, rest, err := consumeUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if n > maxString || int(n) > len(rest) {
		return nil, nil, errTruncated
	}
	return rest[:n], rest[n:], nil
}

func consumeString(b []byte) (string, []byte, error) {
	raw, rest, err := consumeStringBytes(b)
	return string(raw), rest, err
}
