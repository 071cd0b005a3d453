package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Frame layer: every byte either side of the gob codec travels inside a
// length-prefixed, CRC32C-checksummed frame:
//
//	[4-byte little-endian payload length][4-byte CRC32C][payload]
//
// gob cannot tell a flipped bit from a valid stream — in the best case
// it errors with arbitrary garbage, in the worst it decodes a plausible
// wrong value. With frames underneath, corruption on the wire (the
// faults.Corrupt injector, a bad NIC, a misbehaving middlebox) is
// *detected* deterministically, attributed (ErrCorruptFrame, distinct
// from connection loss), and recovered typed: the server answers
// CodeCorrupt, the client retries breaker-neutrally on a fresh
// connection. Castagnoli matches the shard-level checksums (integrity
// plane, index wire v5) and is hardware-accelerated on amd64/arm64.

// frameTable is the CRC32C polynomial table shared by both directions.
var frameTable = crc32.MakeTable(crc32.Castagnoli)

// maxFramePayload bounds a single frame. gob messages here are small
// (requests, responses) except shard transfers, which can reach tens of
// MB — the cap rejects absurd lengths from corrupted headers before any
// allocation happens.
const maxFramePayload = 256 << 20

// ErrCorruptFrame marks a frame whose payload failed its CRC: the bytes
// arrived, framed and sized correctly, but were mangled in transit.
// Transient and breaker-neutral — the peer is alive and framing is
// intact; a retry on a fresh connection is expected to succeed.
var ErrCorruptFrame = errors.New("rpc: corrupt frame payload")

// ErrBadFrame marks a structurally invalid frame (impossible length) or
// a payload that passed its CRC yet failed to decode — the stream is
// garbage or desynced, not merely bit-flipped, and the connection
// cannot be trusted further.
var ErrBadFrame = errors.New("rpc: bad frame")

// IsCorruptFrame reports whether err stems from a payload CRC mismatch.
func IsCorruptFrame(err error) bool { return errors.Is(err, ErrCorruptFrame) }

// IsBadFrame reports whether err stems from structurally invalid
// framing or an undecodable (but checksum-clean) payload.
func IsBadFrame(err error) bool { return errors.Is(err, ErrBadFrame) }

// frameWriter wraps each Write into one checksummed frame. gob emits
// every message (type descriptors and values alike) as a single Write,
// so frames and gob messages line up one-to-one without the writer
// needing to know anything about gob.
type frameWriter struct {
	w   io.Writer
	buf []byte // header+payload assembled for a single conn.Write
}

func newFrameWriter(w io.Writer) *frameWriter { return &frameWriter{w: w} }

func (fw *frameWriter) Write(p []byte) (int, error) {
	if len(p) > maxFramePayload {
		return 0, fmt.Errorf("%w: payload %d exceeds cap", ErrBadFrame, len(p))
	}
	need := 8 + len(p)
	if cap(fw.buf) < need {
		fw.buf = make([]byte, need)
	}
	fw.buf = fw.buf[:need]
	binary.LittleEndian.PutUint32(fw.buf[0:4], uint32(len(p)))
	binary.LittleEndian.PutUint32(fw.buf[4:8], crc32.Checksum(p, frameTable))
	copy(fw.buf[8:], p)
	if _, err := fw.w.Write(fw.buf); err != nil {
		return 0, err
	}
	return len(p), nil
}

// frameReader unwraps checksummed frames back into a byte stream. A
// CRC mismatch surfaces as ErrCorruptFrame, an impossible length as
// ErrBadFrame; both are sticky — once the stream has lied there is no
// resynchronizing it, the connection must be dropped.
type frameReader struct {
	r    io.Reader
	buf  []byte // current frame's payload
	off  int    // read offset into buf
	err  error  // sticky error
	head [8]byte
}

func newFrameReader(r io.Reader) *frameReader { return &frameReader{r: r} }

// Err returns the sticky frame-layer error, nil if the stream has been
// clean so far. Callers use it to tell a detected corruption apart from
// gob-level or transport errors after a decode fails.
func (fr *frameReader) Err() error { return fr.err }

func (fr *frameReader) Read(p []byte) (int, error) {
	if fr.err != nil {
		return 0, fr.err
	}
	for fr.off == len(fr.buf) {
		if err := fr.fill(); err != nil {
			fr.err = err
			return 0, err
		}
	}
	n := copy(p, fr.buf[fr.off:])
	fr.off += n
	return n, nil
}

// fill reads and verifies the next frame into fr.buf.
func (fr *frameReader) fill() error {
	if _, err := io.ReadFull(fr.r, fr.head[:]); err != nil {
		return err // clean EOF between frames is a normal close
	}
	length := binary.LittleEndian.Uint32(fr.head[0:4])
	want := binary.LittleEndian.Uint32(fr.head[4:8])
	if length > maxFramePayload {
		return fmt.Errorf("%w: impossible payload length %d", ErrBadFrame, length)
	}
	if cap(fr.buf) < int(length) {
		fr.buf = make([]byte, length)
	}
	fr.buf = fr.buf[:length]
	fr.off = 0
	if _, err := io.ReadFull(fr.r, fr.buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // header promised a payload
		}
		return err
	}
	if got := crc32.Checksum(fr.buf, frameTable); got != want {
		return fmt.Errorf("%w: crc %08x, want %08x over %d bytes", ErrCorruptFrame, got, want, length)
	}
	return nil
}
