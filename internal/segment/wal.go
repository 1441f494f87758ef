package segment

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// The write-ahead log is the durability point of every append: a fixed
// header followed by length-prefixed, CRC-framed record payloads. The
// protocol is strictly append-only — a crash can only ever damage the
// final frame, and the opener detects that torn tail (short frame,
// over-long length, checksum or decode failure, sequence gap) and
// truncates the file back to the last intact frame. Anything before the
// tear was acknowledged durable and is never dropped; anything after it
// was never acknowledged and is never half-applied.
//
//	header:  "MWAL" | version u32 | baseFP u64 | startSeq u64 | crc32c u32
//	frame:   len u32 | crc32c(payload) u32 | payload (encodeRecord)
//
// startSeq is the sequence number of the first frame; frame i carries
// seq startSeq+i, so replay can dedup against the folded prefix after a
// crash between folding and log rotation. A sealed segment is a former
// live log, sealed by a hard link (Store.foldLocked) and never written
// again; a log that starts before the folded sequence may be one, so
// Open replaces it rather than truncate it (Store.openWAL).

const (
	walMagic      = "MWAL"
	walHeaderSize = 4 + 4 + 8 + 8 + 4
	frameHeader   = 4 + 4
)

type walHeader struct {
	baseFP   uint64
	startSeq uint64
}

func encodeWALHeader(h walHeader) []byte {
	e := &enc{}
	e.b = append(e.b, walMagic...)
	e.u32(formatVersion)
	e.u64(h.baseFP)
	e.u64(h.startSeq)
	e.u32(crc32.Checksum(e.b, castagnoli))
	return e.b
}

func decodeWALHeader(b []byte) (walHeader, error) {
	if len(b) < walHeaderSize {
		return walHeader{}, fmt.Errorf("%w: WAL header truncated at %d bytes", ErrCorrupt, len(b))
	}
	if string(b[:4]) != walMagic {
		return walHeader{}, fmt.Errorf("%w: bad WAL magic %q", ErrCorrupt, b[:4])
	}
	sum := binary.LittleEndian.Uint32(b[walHeaderSize-4:])
	if crc32.Checksum(b[:walHeaderSize-4], castagnoli) != sum {
		return walHeader{}, fmt.Errorf("%w: WAL header checksum mismatch", ErrCorrupt)
	}
	d := &dec{b: b[4:walHeaderSize]}
	ver, _ := d.u32()
	if ver != formatVersion {
		return walHeader{}, fmt.Errorf("%w: WAL format version %d, want %d", ErrCorrupt, ver, formatVersion)
	}
	var h walHeader
	h.baseFP, _ = d.u64()
	h.startSeq, _ = d.u64()
	return h, nil
}

// encodeFrame wraps one record payload in the WAL framing.
func encodeFrame(payload []byte) []byte {
	e := &enc{b: make([]byte, 0, frameHeader+len(payload))}
	e.u32(uint32(len(payload)))
	e.u32(crc32.Checksum(payload, castagnoli))
	e.bytes(payload)
	return e.b
}

// walScan is the result of scanning a log image: how many intact
// frames it holds, their records when the scan decodes them, and where
// the intact prefix ends. torn is true when the file holds bytes past
// good — the signature of a crash mid-append.
type walScan struct {
	header walHeader
	frames int
	recs   []FactAppend // nil when scanned without decoding
	good   int64        // byte offset just past the last intact frame
	torn   bool
}

// scanLog walks the frames of a log image, the live log's or a sealed
// segment's. A damaged frame — short, over-long, failing its checksum,
// breaking the startSeq+i sequence contract, or (with decode)
// undecodable — ends the scan: everything before it is intact,
// everything from it on is a torn tail, for the caller to truncate (the
// live log) or refuse (a sealed segment). Only a damaged header is a
// hard error here: with the header gone there is no intact prefix to
// stand on. Without decode the scan never calls decodeRecord and reads
// only each payload's leading seq: the cheap walk for sealed segments
// whose records the snapshot already holds.
//
// The image streams from r through one buffer (r itself when it is a
// large enough *bufio.Reader) and each frame's payload through one
// scratch slice, so a walk holds one frame at a time, never the file;
// decoded records copy what they keep out of the payload. A read error
// other than the end of the stream is returned.
func scanLog(r io.Reader, baseFP uint64, decode bool) (walScan, error) {
	br := bufio.NewReaderSize(r, streamBuf)
	var head [walHeaderSize]byte
	n, err := io.ReadFull(br, head[:])
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return walScan{}, err
	}
	h, err := decodeWALHeader(head[:n])
	if err != nil {
		return walScan{}, err
	}
	if h.baseFP != baseFP {
		return walScan{}, fmt.Errorf("%w: WAL fingerprint %016x, base is %016x", ErrBaseMismatch, h.baseFP, baseFP)
	}
	s := walScan{header: h, good: walHeaderSize}
	fh, payload := make([]byte, frameHeader), []byte(nil)
	for {
		n, err := io.ReadFull(br, fh)
		if n == 0 && err == io.EOF {
			break // the intact end
		}
		if err != nil {
			if err != io.ErrUnexpectedEOF {
				return walScan{}, err
			}
			s.torn = true
			break
		}
		size := binary.LittleEndian.Uint32(fh)
		sum := binary.LittleEndian.Uint32(fh[4:])
		if size > maxRecord {
			s.torn = true
			break
		}
		if cap(payload) < int(size) {
			payload = make([]byte, size)
		}
		payload = payload[:size]
		if _, err := io.ReadFull(br, payload); err != nil {
			if err != io.ErrUnexpectedEOF && err != io.EOF {
				return walScan{}, err
			}
			s.torn = true
			break
		}
		if crc32.Checksum(payload, castagnoli) != sum {
			s.torn = true
			break
		}
		if len(payload) < 8 || binary.LittleEndian.Uint64(payload) != h.startSeq+uint64(s.frames) {
			s.torn = true
			break
		}
		if decode {
			rec, err := decodeRecord(payload)
			if err != nil {
				s.torn = true
				break
			}
			s.recs = append(s.recs, rec)
		}
		s.frames++
		s.good += frameHeader + int64(size)
	}
	return s, nil
}

// readSealedFrom checks a sealed segment image against its manifest entry:
// an intact header starting at se.From, exactly se.To−se.From frames,
// and nothing after them. Anything else is ErrCorrupt (or
// ErrBaseMismatch) naming the file. With decode it returns the records;
// without, it is the frame-only walk.
func readSealedFrom(r io.Reader, baseFP uint64, se segEntry, decode bool) ([]FactAppend, error) {
	s, err := scanLog(r, baseFP, decode)
	switch {
	case err != nil:
		return nil, fmt.Errorf("segment %s: %w", se.File, err)
	case s.header.startSeq != se.From:
		return nil, fmt.Errorf("%w: segment %s starts at seq %d, manifest says %d",
			ErrCorrupt, se.File, s.header.startSeq, se.From)
	case s.torn:
		return nil, fmt.Errorf("%w: segment %s has a damaged frame at byte %d", ErrCorrupt, se.File, s.good)
	case uint64(s.frames) != se.To-se.From:
		return nil, fmt.Errorf("%w: segment %s holds %d records, manifest says [%d, %d)",
			ErrCorrupt, se.File, s.frames, se.From, se.To)
	}
	return s.recs, nil
}
