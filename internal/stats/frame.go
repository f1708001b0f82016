package stats

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// This file is the stream-framing half of the wire contract: the binary
// codecs above serialize one collector to bytes, and frames carry those
// byte payloads over any ordered byte stream (a TCP connection, an
// in-memory pipe) with explicit boundaries. The cluster runtime
// (internal/cluster) speaks length-prefixed frames of protocol messages
// whose collector payloads are the bit-exact codecs, so the cross-process
// merge guarantee survives the network unchanged.
//
// Two frame forms exist. The plain form (WriteFrame/ReadFrame) is u32
// little-endian payload length, then payload bytes — it remains the
// canonical in-memory composition format (AppendFrame). The checksummed
// form (WriteFrameSum/ReadFrameSum) appends a u32 CRC32C trailer whose
// value chains across the whole stream: frame i's checksum continues the
// CRC state left by frame i-1, so it commits not just to the payload but
// to the exact sequence of payloads delivered so far. A corrupted,
// duplicated, dropped, or reordered frame therefore breaks the chain and
// surfaces as ErrChecksum at the reader — integrity for the entire
// conversation at the cost of four bytes and one CRC32C pass (hardware
// accelerated on every platform Go targets) per frame.
//
// Reading is defensive to the same standard as the codecs: a forged or
// corrupted length cannot trigger an oversized allocation (the payload
// buffer grows only as bytes actually arrive, and lengths above the
// caller's limit are rejected up front), and malformed input returns an
// error wrapping ErrCodec instead of panicking (FuzzReadFrame,
// FuzzReadFrameSum).

// FrameHeaderLen is the byte length of the frame length prefix;
// FrameTrailerLen the byte length of the checksummed form's CRC32C
// trailer. Exported so fault-injection layers can locate the payload
// region of an encoded frame without re-parsing it.
const (
	FrameHeaderLen  = 4
	FrameTrailerLen = 4
)

// frameHeaderLen is the byte length of the frame length prefix.
const frameHeaderLen = FrameHeaderLen

// ErrChecksum is the typed failure of the checksummed frame form: the
// payload arrived intact as bytes but its rolling CRC32C trailer does
// not match, meaning the stream was corrupted, or a frame was dropped,
// duplicated, or reordered somewhere between the peers. Errors returned
// by ReadFrameSum wrap both ErrChecksum and ErrCodec.
var ErrChecksum = errors.New("stats: frame checksum mismatch")

// castagnoli is the CRC32C polynomial table (iSCSI/ext4's checksum, with
// hardware support via SSE4.2/ARMv8 CRC instructions).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ChainSum advances the rolling checksum state over one payload: the
// returned value is both frame's trailer and the seed for the next
// frame's. Chaining is plain CRC continuation, so the state after N
// frames equals the CRC32C of their concatenated payloads.
func ChainSum(prev uint32, payload []byte) uint32 {
	return crc32.Update(prev, castagnoli, payload)
}

// MaxFrame is the largest payload WriteFrame will emit and the largest
// length a reader can opt into; readers normally pass a tighter limit.
const MaxFrame = 1 << 30

// WriteFrame writes one length-prefixed frame. The payload may be empty;
// payloads above MaxFrame are refused (the length prefix could encode
// them, but no peer would accept the frame).
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("stats: frame payload of %d bytes exceeds MaxFrame", len(payload))
	}
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) == 0 {
		return nil
	}
	_, err := w.Write(payload)
	return err
}

// AppendFrame appends one length-prefixed frame to dst and returns the
// extended slice — the in-memory form of WriteFrame, for composing
// canonical byte strings out of codec payloads (the campaign
// verification fingerprint frames each collector payload this way, so
// two encodings are byte-equal iff every framed payload is). The same
// MaxFrame bound applies.
func AppendFrame(dst, payload []byte) ([]byte, error) {
	if len(payload) > MaxFrame {
		return dst, fmt.Errorf("stats: frame payload of %d bytes exceeds MaxFrame", len(payload))
	}
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...), nil
}

// ReadFrame reads one frame and returns its payload. max bounds the
// payload length this reader accepts (values out of (0, MaxFrame] are
// clamped to MaxFrame); longer frames return an error wrapping ErrCodec.
// A truncated stream returns io.ErrUnexpectedEOF (or io.EOF when the
// stream ends cleanly before the header), and allocation is bounded by
// the bytes that actually arrive — a forged length on a short stream
// cannot balloon memory.
func ReadFrame(r io.Reader, max int) ([]byte, error) {
	if max <= 0 || max > MaxFrame {
		max = MaxFrame
	}
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > uint32(max) {
		return nil, codecErr("frame of %d bytes exceeds limit %d", n, max)
	}
	// Grow the buffer chunk by chunk rather than trusting the header:
	// allocation tracks delivered bytes, so truncation costs at most one
	// chunk of slack.
	const chunk = 64 << 10
	payload := make([]byte, 0, min(int(n), chunk))
	for len(payload) < int(n) {
		step := int(n) - len(payload)
		if step > chunk {
			step = chunk
		}
		off := len(payload)
		payload = slices.Grow(payload, step)[:off+step]
		if _, err := io.ReadFull(r, payload[off:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return payload, nil
}

// WriteFrameSum writes one checksummed frame (u32 length, payload, u32
// rolling CRC32C trailer) and returns the advanced chain state the
// caller must feed into the next WriteFrameSum on the same stream. prev
// is the state left by the previous frame (0 for the first).
func WriteFrameSum(w io.Writer, payload []byte, prev uint32) (uint32, error) {
	if err := WriteFrame(w, payload); err != nil {
		return prev, err
	}
	sum := ChainSum(prev, payload)
	var tr [FrameTrailerLen]byte
	binary.LittleEndian.PutUint32(tr[:], sum)
	if _, err := w.Write(tr[:]); err != nil {
		return prev, err
	}
	return sum, nil
}

// AppendFrameSum is the in-memory form of WriteFrameSum: it appends one
// checksummed frame to dst and returns the extended slice plus the
// advanced chain state. Fault-injection layers use it to materialize the
// exact bytes WriteFrameSum would emit before mutating them.
func AppendFrameSum(dst, payload []byte, prev uint32) ([]byte, uint32, error) {
	dst, err := AppendFrame(dst, payload)
	if err != nil {
		return dst, prev, err
	}
	sum := ChainSum(prev, payload)
	var tr [FrameTrailerLen]byte
	binary.LittleEndian.PutUint32(tr[:], sum)
	return append(dst, tr[:]...), sum, nil
}

// ReadFrameSum reads one checksummed frame, verifies its rolling CRC32C
// trailer against the chain state prev, and returns the payload plus the
// advanced state. A trailer mismatch returns an error wrapping both
// ErrChecksum and ErrCodec — the caller cannot resynchronize after one
// (the chain is broken for good), so the only sound reaction is to drop
// the peer. Length-limit and truncation behavior match ReadFrame.
func ReadFrameSum(r io.Reader, max int, prev uint32) ([]byte, uint32, error) {
	payload, err := ReadFrame(r, max)
	if err != nil {
		return nil, prev, err
	}
	var tr [FrameTrailerLen]byte
	if _, err := io.ReadFull(r, tr[:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, prev, err
	}
	sum := ChainSum(prev, payload)
	if got := binary.LittleEndian.Uint32(tr[:]); got != sum {
		return nil, prev, checksumErr(got, sum)
	}
	return payload, sum, nil
}

// checksumErr builds the typed integrity failure: errors.Is matches both
// ErrChecksum (what happened) and ErrCodec (the peer's stream is
// malformed and must be dropped).
func checksumErr(got, want uint32) error {
	return fmt.Errorf("%w (got %08x, want %08x): %w", ErrChecksum, got, want, ErrCodec)
}
