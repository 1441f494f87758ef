package segment

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"strings"
	"testing"

	"mddm/internal/dimension"
	"mddm/internal/temporal"
)

// stamp appends the CRC-32C trailer, turning a hand-built body into a
// checksum-valid artifact so the structural validation branches behind
// the checksum are reachable.
func stamp(b []byte) []byte {
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
}

const testFP = uint64(0xdeadbeefcafe1234)

// sealedRecs returns n one-pair records carrying seqs from, from+1, ….
func sealedRecs(from uint64, n int) []FactAppend {
	recs := make([]FactAppend, n)
	for i := range recs {
		recs[i] = FactAppend{Seq: from + uint64(i), FactID: fmt.Sprintf("f%d", i),
			Pairs: []Pair{{Dim: "D", Value: "v", Annot: dimension.Always()}}}
	}
	return recs
}

// TestDecodeSegmentValidation reads damaged sealed segments on both
// paths: decoded (records the snapshot does not cover) and frame-only
// (covered records). Every damage is a hard, typed error naming the file.
func TestDecodeSegmentValidation(t *testing.T) {
	const from = 4
	recs := sealedRecs(from, 3)
	img := sealSegment(testFP, from, recs)
	se := segEntry{File: "seg-test.wal", From: from, To: from + 3}
	for _, decode := range []bool{true, false} {
		got, err := readSealed(img, testFP, se, decode)
		if err != nil || (decode && len(got) != 3) {
			t.Fatalf("valid sealed segment (decode=%v): %d records, err %v", decode, len(got), err)
		}
	}
	withFrame := func(payload []byte) []byte {
		return append(append([]byte(nil), img...), encodeFrame(payload)...)
	}
	badRec := func(mutate func(e *enc)) []byte {
		e := &enc{}
		e.u64(from + 3)
		mutate(e)
		return e.b
	}
	restamp := func(mutate func(h []byte)) []byte {
		b := append([]byte(nil), img...)
		mutate(b)
		binary.LittleEndian.PutUint32(b[walHeaderSize-4:], crc32.Checksum(b[:walHeaderSize-4], castagnoli))
		return b
	}
	long := segEntry{File: se.File, From: from, To: from + 4}
	cases := []struct {
		name        string
		img         []byte
		se          segEntry
		want        error
		decodedOnly bool // damage only the record decoder sees
	}{
		{name: "truncated", img: img[:10], se: se, want: ErrCorrupt},
		{name: "bad-magic", img: append([]byte("XWAL"), img[4:]...), se: se, want: ErrCorrupt},
		{name: "bad-version", img: restamp(func(h []byte) { binary.LittleEndian.PutUint32(h[4:], 1) }), se: se, want: ErrCorrupt},
		{name: "fp-mismatch", img: restamp(func(h []byte) { binary.LittleEndian.PutUint64(h[8:], testFP+1) }), se: se, want: ErrBaseMismatch},
		{name: "start-seq-mismatch", img: sealSegment(testFP, from+1, sealedRecs(from+1, 3)), se: se, want: ErrCorrupt},
		{name: "inverted-range", img: img, se: segEntry{File: se.File, From: from, To: from - 1}, want: ErrCorrupt},
		{name: "absurd-range", img: img, se: segEntry{File: se.File, From: from, To: 1 << 34}, want: ErrCorrupt},
		{name: "frame-count-short", img: sealSegment(testFP, from, recs[:2]), se: se, want: ErrCorrupt},
		{name: "frame-count-long", img: withFrame(encodeRecord(sealedRecs(from+3, 1)[0])), se: se, want: ErrCorrupt},
		{name: "seq-out-of-order", img: sealSegment(testFP, from, []FactAppend{recs[1], recs[0], recs[2]}), se: se, want: ErrCorrupt},
		{name: "truncated-frame", img: img[:len(img)-3], se: se, want: ErrCorrupt},
		{name: "trailing-bytes", img: append(append([]byte(nil), img...), 0xff), se: se, want: ErrCorrupt},
		{name: "flipped-bit", img: func() []byte {
			b := append([]byte(nil), img...)
			b[walHeaderSize+frameHeader+9] ^= 1
			return b
		}(), se: se, want: ErrCorrupt},
		{name: "empty-fact-id", img: withFrame(badRec(func(e *enc) {
			e.str("")
			e.u32(1)
		})), se: long, want: ErrCorrupt, decodedOnly: true},
		{name: "zero-pairs", img: withFrame(badRec(func(e *enc) {
			e.str("f")
			e.u32(0)
		})), se: long, want: ErrCorrupt, decodedOnly: true},
		{name: "pair-count-over-cap", img: withFrame(badRec(func(e *enc) {
			e.str("f")
			e.u32(maxPairs + 1)
		})), se: long, want: ErrCorrupt, decodedOnly: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, decode := range []bool{true, false} {
				_, err := readSealed(c.img, testFP, c.se, decode)
				if c.decodedOnly && !decode {
					if err != nil {
						t.Errorf("frame-only walk: %v", err)
					}
					continue
				}
				if !errors.Is(err, c.want) || !strings.Contains(err.Error(), c.se.File) {
					t.Errorf("decode=%v: err = %v, want %v naming %s", decode, err, c.want, c.se.File)
				}
			}
		})
	}
}

func TestDecodeRecordValidation(t *testing.T) {
	full := FactAppend{Seq: 42, FactID: "f-1", Pairs: []Pair{
		{Dim: "D", Value: "v", Annot: dimension.Annot{
			Time: temporal.Bitemporal{
				Valid: temporal.NewElement(temporal.Interval{Start: 10, End: 20}, temporal.Interval{Start: 30, End: 40}),
				Trans: temporal.AlwaysElement(),
			},
			Prob: 0.25,
		}},
		{Dim: "D2", Value: "v2", Annot: dimension.Always()},
	}}
	got, err := decodeRecord(encodeRecord(full))
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if got.Seq != full.Seq || got.FactID != full.FactID || len(got.Pairs) != 2 {
		t.Fatalf("round trip mangled: %+v", got)
	}
	if got.Pairs[0].Annot.Prob != 0.25 || !got.Pairs[0].Annot.Time.Valid.Equal(full.Pairs[0].Annot.Time.Valid) {
		t.Fatalf("annotation round trip mangled: %+v", got.Pairs[0].Annot)
	}

	rec := func(mutate func(e *enc)) []byte {
		e := &enc{}
		e.u64(1)
		e.str("f")
		mutate(e)
		return e.b
	}
	cases := []struct {
		name string
		b    []byte
	}{
		{"empty", nil},
		{"truncated-mid-string", []byte{1, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 'f'}},
		{"empty-fact-id", func() []byte {
			e := &enc{}
			e.u64(1)
			e.str("")
			e.u32(1)
			return e.b
		}()},
		{"zero-pairs", rec(func(e *enc) { e.u32(0) })},
		{"pair-cap", rec(func(e *enc) { e.u32(maxPairs + 1) })},
		{"string-cap", rec(func(e *enc) {
			e.u32(1)
			e.u32(maxString + 1) // dim name length over cap
		})},
		{"bad-annot-flag", rec(func(e *enc) {
			e.u32(1)
			e.str("D")
			e.str("v")
			e.byte(7)
		})},
		{"nan-prob", rec(func(e *enc) {
			e.u32(1)
			e.str("D")
			e.str("v")
			e.byte(annotFull)
			e.u64(math.Float64bits(math.NaN()))
		})},
		{"prob-over-one", rec(func(e *enc) {
			e.u32(1)
			e.str("D")
			e.str("v")
			e.byte(annotFull)
			e.u64(math.Float64bits(1.5))
		})},
		{"interval-cap", rec(func(e *enc) {
			e.u32(1)
			e.str("D")
			e.str("v")
			e.byte(annotFull)
			e.u64(math.Float64bits(0.5))
			e.u32(maxIntervals + 1)
		})},
		{"trailing-bytes", append(encodeRecord(full), 0)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := decodeRecord(c.b); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
		})
	}
}

func TestScanWALValidation(t *testing.T) {
	header := encodeWALHeader(walHeader{baseFP: testFP, startSeq: 5})
	recFrame := func(seq uint64) []byte {
		return encodeFrame(encodeRecord(FactAppend{
			Seq: seq, FactID: "f", Pairs: []Pair{{Dim: "D", Value: "v", Annot: dimension.Always()}},
		}))
	}

	t.Run("header-errors", func(t *testing.T) {
		if _, err := decodeWALHeader(header[:10]); !errors.Is(err, ErrCorrupt) {
			t.Errorf("short header: %v", err)
		}
		bad := append([]byte("XWAL"), header[4:]...)
		if _, err := decodeWALHeader(bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("bad magic: %v", err)
		}
		ver := append([]byte(nil), header...)
		binary.LittleEndian.PutUint32(ver[4:], formatVersion+1)
		binary.LittleEndian.PutUint32(ver[walHeaderSize-4:], crc32.Checksum(ver[:walHeaderSize-4], castagnoli))
		if _, err := decodeWALHeader(ver); !errors.Is(err, ErrCorrupt) {
			t.Errorf("bad version: %v", err)
		}
		crc := append([]byte(nil), header...)
		crc[walHeaderSize-1] ^= 1
		if _, err := decodeWALHeader(crc); !errors.Is(err, ErrCorrupt) {
			t.Errorf("bad crc: %v", err)
		}
		if _, err := scanWAL(crc, testFP, true); !errors.Is(err, ErrCorrupt) {
			t.Errorf("scan over bad header: %v", err)
		}
	})
	t.Run("fp-mismatch-hard", func(t *testing.T) {
		if _, err := scanWAL(header, testFP+1, true); !errors.Is(err, ErrBaseMismatch) {
			t.Errorf("err = %v, want ErrBaseMismatch", err)
		}
	})
	t.Run("clean", func(t *testing.T) {
		img := append(append([]byte(nil), header...), recFrame(5)...)
		img = append(img, recFrame(6)...)
		s, err := scanWAL(img, testFP, true)
		if err != nil || s.torn || len(s.recs) != 2 || s.good != int64(len(img)) {
			t.Fatalf("clean scan: torn=%v recs=%d good=%d err=%v", s.torn, len(s.recs), s.good, err)
		}
		if s.recs[0].Seq != 5 || s.recs[1].Seq != 6 {
			t.Fatalf("seqs: %d %d", s.recs[0].Seq, s.recs[1].Seq)
		}
	})
	tornCases := []struct {
		name string
		tail []byte
	}{
		{"short-frame-header", []byte{1, 2, 3}},
		{"absurd-length", binary.LittleEndian.AppendUint32(nil, maxRecord+1)},
		{"length-past-eof", []byte{0xff, 0, 0, 0, 1, 2, 3, 4, 9}},
		{"payload-crc", func() []byte {
			f := recFrame(6)
			f[len(f)-1] ^= 1
			return f
		}()},
		{"undecodable-payload", encodeFrame([]byte("not a record"))},
		{"seq-gap", recFrame(9)},
	}
	for _, c := range tornCases {
		t.Run("torn-"+c.name, func(t *testing.T) {
			img := append(append([]byte(nil), header...), recFrame(5)...)
			good := int64(len(img))
			img = append(img, c.tail...)
			s, err := scanWAL(img, testFP, true)
			if err != nil {
				t.Fatal(err)
			}
			if !s.torn || len(s.recs) != 1 || s.good != good {
				t.Fatalf("torn=%v recs=%d good=%d, want torn with 1 rec at %d", s.torn, len(s.recs), s.good, good)
			}
		})
	}
}

// TestFingerprints pins that the fingerprints react to every input they
// claim to cover.
func TestFingerprints(t *testing.T) {
	m := base(t)
	if fingerprintMO(m) != fingerprintMO(base(t)) {
		t.Error("same base, different fingerprints")
	}
	ref := testRef
	a := fingerprintCtx(dimension.CurrentContext(ref))
	if a != fingerprintCtx(dimension.CurrentContext(ref)) {
		t.Error("same context, different fingerprints")
	}
	variants := []dimension.Context{
		dimension.CurrentContext(ref + 1),
		{Valid: &ref, Ref: ref},
		{Trans: &ref, Ref: ref},
		{Ref: ref, MinProb: 0.5},
	}
	seen := map[uint64]bool{a: true}
	for i, v := range variants {
		fp := fingerprintCtx(v)
		if seen[fp] {
			t.Errorf("context variant %d collides with a previous fingerprint", i)
		}
		seen[fp] = true
	}
}
