// Manifest-only catalog inspection: listing N databases costs N manifest
// reads and directory stats, never a snapshot decode or a WAL replay.
// This is how `imprecise db list`/`db stats` answer by default — a
// corrupt document payload or a log needing repair does not block an
// operator from seeing what is on disk.
package catalog

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/store"
)

// QuickStat is the manifest-only view of one database directory: what
// the latest snapshot recorded plus the raw size of the log tail. It
// reflects the last compaction, not the live tip — ops journaled since
// the snapshot are visible only as WAL bytes.
type QuickStat struct {
	Name string `json:"name"`
	// HasSnapshot is false for a directory with no manifest yet (created
	// but never compacted); the manifest-derived fields are then zero, and
	// so they are for a manifest that cannot be read (FormatVersion 0).
	HasSnapshot   bool      `json:"has_snapshot"`
	FormatVersion int       `json:"format_version,omitempty"`
	LogicalNodes  int64     `json:"logical_nodes"`
	Worlds        string    `json:"worlds,omitempty"`
	SnapshotSeq   uint64    `json:"snapshot_seq"`
	Epoch         uint64    `json:"epoch"`
	SavedAt       time.Time `json:"saved_at,omitzero"`
	Integrations  int       `json:"integrations"`
	Feedback      int       `json:"feedback_events"`
	// WALSegments and WALBytes size the un-compacted tail without
	// decoding it.
	WALSegments int   `json:"wal_segments"`
	WALBytes    int64 `json:"wal_bytes"`
	// Unloadable says why this build cannot load the snapshot ("" when
	// it can): its format, or a manifest that cannot be read. Opening the
	// catalog would refuse it.
	Unloadable string `json:"unloadable,omitempty"`
}

// QuickStats reads the manifest-level stats of every database under a
// catalog data directory without opening the catalog: no lock, no
// document decode, no WAL replay. The directory need not exist (an
// empty listing results). A present-and-unreadable manifest is reported
// in its database's row, as Unloadable: silence would hide corruption
// from the one command meant to see it, and an error would hide every
// other database with it.
func QuickStats(dir string) ([]QuickStat, error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []QuickStat
	for _, e := range entries {
		if !e.IsDir() || validateName(e.Name()) != nil {
			continue
		}
		qs, err := quickStat(dir, e.Name())
		if err != nil {
			return nil, err
		}
		out = append(out, qs)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// quickStat reads the manifest-level stats of the database directory
// dir/name.
func quickStat(dir, name string) (QuickStat, error) {
	qs := QuickStat{Name: name}
	m, err := store.ReadManifest(filepath.Join(dir, name, stateDirName))
	switch {
	case err == nil:
		qs.HasSnapshot = true
		qs.FormatVersion = m.FormatVersion
		if err := store.CheckFormat(m.FormatVersion); err != nil {
			qs.Unloadable = err.Error()
		}
		qs.LogicalNodes = m.LogicalNodes
		qs.Worlds = m.Worlds
		qs.SnapshotSeq = m.LogSeq
		qs.Epoch = m.Epoch
		qs.SavedAt = m.SavedAt
		qs.Integrations = int(m.Integrations)
		qs.Feedback = len(m.Feedback)
	case errors.Is(err, fs.ErrNotExist):
		// Created but never compacted: only the log exists.
	default:
		qs.HasSnapshot = true
		qs.Unloadable = err.Error()
	}
	segs, err := os.ReadDir(filepath.Join(dir, name, walDirName))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return QuickStat{}, fmt.Errorf("catalog: %s: %w", name, err)
	}
	for _, s := range segs {
		info, err := s.Info()
		if err != nil {
			return QuickStat{}, fmt.Errorf("catalog: %s: %w", name, err)
		}
		qs.WALSegments++
		qs.WALBytes += info.Size()
	}
	return qs, nil
}

// ReadQuickStat reads one database's manifest-only stats, and no other
// database's; ErrNotFound if no such directory exists under dir.
func ReadQuickStat(dir, name string) (QuickStat, error) {
	if err := validateName(name); err != nil {
		return QuickStat{}, err
	}
	if fi, err := os.Stat(filepath.Join(dir, name)); errors.Is(err, fs.ErrNotExist) || err == nil && !fi.IsDir() {
		return QuickStat{}, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return quickStat(dir, name)
}
