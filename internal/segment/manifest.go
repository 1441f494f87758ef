package segment

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// The manifest is the store's commit record: which artifacts are live
// and how far the WAL has been folded. It is replaced atomically (temp
// file, fsync, rename, directory fsync), so a reader always sees either
// the old commit or the new one — never a mix. A segment or snapshot
// file not named by the manifest is an orphan from a crashed fold; it is
// deleted at open, and its records are still safe because the WAL only
// rotates after the manifest naming their segment is durable (an orphan
// segment may be a second name of the live log's file).

const (
	manifestName = "MANIFEST"
	walName      = "wal.log"
	sealedExt    = ".wal" // a sealed segment: seg-<from>-<to>.wal
)

type manifest struct {
	Version   int        `json:"version"`
	BaseFP    string     `json:"base_fp"` // %016x of fingerprintMO
	BaseFacts int        `json:"base_facts"`
	FoldedSeq uint64     `json:"folded_seq"` // seqs < this live in segments
	Segments  []segEntry `json:"segments"`
	Snapshot  *snapEntry `json:"snapshot,omitempty"`
}

type segEntry struct {
	File string `json:"file"`
	From uint64 `json:"from"`
	To   uint64 `json:"to"`
}

type snapEntry struct {
	File  string `json:"file"`
	Facts int    `json:"facts"`
	Seq   uint64 `json:"seq"`
}

// loadManifest reads and validates the manifest; ok is false when none
// exists (a fresh directory).
func loadManifest(dir string) (*manifest, bool, error) {
	b, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, false, fmt.Errorf("%w: manifest: %v", ErrCorrupt, err)
	}
	if m.Version != formatVersion {
		return nil, false, fmt.Errorf("%w: manifest version %d, want %d", ErrCorrupt, m.Version, formatVersion)
	}
	// Segments must tile [0, FoldedSeq) contiguously — a gap means a
	// committed range of history has no durable home.
	var at uint64
	for _, s := range m.Segments {
		if s.From != at || s.To < s.From {
			return nil, false, fmt.Errorf("%w: manifest segment %s covers [%d, %d), expected to start at %d",
				ErrCorrupt, s.File, s.From, s.To, at)
		}
		at = s.To
	}
	if at != m.FoldedSeq {
		return nil, false, fmt.Errorf("%w: manifest segments end at seq %d, folded_seq is %d", ErrCorrupt, at, m.FoldedSeq)
	}
	return &m, true, nil
}

// saveManifest atomically replaces the manifest.
func saveManifest(dir string, m *manifest) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return atomicWrite(dir, manifestName, append(b, '\n'))
}

// atomicWrite publishes b as name in dir (see atomicWriteFunc).
func atomicWrite(dir, name string, b []byte) error {
	return atomicWriteFunc(dir, name, func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	})
}

// atomicWriteFunc publishes name in dir via temp file + write + fsync +
// rename + directory fsync, write streaming the content into the temp
// file: after it returns the content is durable under its final name,
// and a crash or a failed write at any point leaves either the old file
// or the new one plus at worst an orphaned *.tmp.
func atomicWriteFunc(dir, name string, write func(io.Writer) error) error {
	tmp := filepath.Join(dir, name+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs the directory so a rename survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	// Some filesystems refuse directory fsync; the rename is still
	// ordered on the journal there, so a refusal is not fatal.
	_ = d.Sync()
	return nil
}
