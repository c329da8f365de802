package catalog

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/pxml"
)

// TestCrashRecoveryQueueEveryByteOffset cuts testdata/queuelog, a log an
// earlier build wrote through its async ingest queue (see
// testdata/README.md), at every byte past its first record:
//
//	frame 1  integrate abA   (committed baseline, never cut)
//	frame 2  enqueue abB     (kind 7)
//	frame 3  apply-queued t1 (kind 8)
//
// A cut inside frame 2 is a torn tail: recovery truncates it and lands on
// the baseline, which keeps accepting appends. Once frame 2 is whole the
// log holds a committed record of a removed kind, and recovery refuses it
// by name — database, sequence and kind — leaving every byte in place.
func TestCrashRecoveryQueueEveryByteOffset(t *testing.T) {
	src := filepath.Join("testdata", "queuelog")
	segRel := filepath.Join("x", walDirName, segName(1))
	seg, err := os.ReadFile(filepath.Join(src, segRel))
	if err != nil {
		t.Fatal(err)
	}
	frameEnd := func(off int) int {
		return off + frameHeaderLen + int(binary.LittleEndian.Uint32(seg[off:]))
	}
	size0 := frameEnd(0)
	size1 := frameEnd(size0)
	if frameEnd(size1) != len(seg) {
		t.Fatalf("testdata log is not three frames: %d, %d, %d of %d bytes", size0, size1, frameEnd(size1), len(seg))
	}

	fresh, err := Open(t.TempDir(), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	ref, err := fresh.Create("ref")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Core().IntegrateXMLString(abA); err != nil {
		t.Fatal(err)
	}
	baseline := ref.Core().Tree()

	for cut := size0; cut <= len(seg); cut++ {
		cut := cut
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			killed := t.TempDir()
			copyDir(t, src, killed)
			segPath := filepath.Join(killed, segRel)
			if err := os.Truncate(segPath, int64(cut)); err != nil {
				t.Fatal(err)
			}
			cat, err := Open(killed, testOptions())
			if cut >= size1 {
				if err == nil {
					cat.Close()
					t.Fatalf("cut %d: a whole enqueue record recovered", cut)
				}
				for _, part := range []string{`"x"`, "record 2 is an enqueue record", "async ingest queue, removed"} {
					if !strings.Contains(err.Error(), part) {
						t.Fatalf("cut %d: error %q does not name %q", cut, err, part)
					}
				}
				if !errors.Is(err, errRemovedOp) || !errors.Is(err, ErrCorrupt) {
					t.Fatalf("cut %d: error %v is not errRemovedOp and ErrCorrupt", cut, err)
				}
				if info, err := os.Stat(segPath); err != nil || info.Size() != int64(cut) {
					t.Fatalf("cut %d: refused segment changed size (%v)", cut, err)
				}
				return
			}
			if err != nil {
				t.Fatalf("recovery failed at cut %d: %v", cut, err)
			}
			defer cat.Close()
			db, err := cat.Get("x")
			if err != nil {
				t.Fatal(err)
			}
			if got := db.LastSeq(); got != 1 {
				t.Fatalf("cut %d: recovered to seq %d, want 1", cut, got)
			}
			if !pxml.Equal(db.Core().Tree().Root(), baseline.Root()) {
				t.Fatalf("cut %d: recovered tree is not the baseline", cut)
			}
			if _, err := db.Core().IntegrateXMLString(abC); err != nil {
				t.Fatalf("cut %d: append after recovery: %v", cut, err)
			}
		})
	}
}

// TestOpenRefusesQueueRecords: a log whose tail holds a hand-built record
// of either removed queue kind refuses to open, naming the database, the
// sequence and the kind.
func TestOpenRefusesQueueRecords(t *testing.T) {
	for code, kind := range map[byte]string{7: "enqueue", 8: "apply-queued"} {
		t.Run(kind, func(t *testing.T) {
			data := t.TempDir()
			cat, err := Open(data, testOptions())
			if err != nil {
				t.Fatal(err)
			}
			db, err := cat.Create("x")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := db.Core().IntegrateXMLString(abA); err != nil {
				t.Fatal(err)
			}
			if err := cat.Close(); err != nil {
				t.Fatal(err)
			}
			seg := filepath.Join(data, "x", walDirName, segName(1))
			f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(rawFrame(queueRecord(t, 2, code))); err != nil {
				t.Fatal(err)
			}
			f.Close()
			_, err = Open(data, testOptions())
			want := fmt.Sprintf("record 2 is an %s record (async ingest queue, removed)", kind)
			if err == nil || !strings.Contains(err.Error(), `"x"`) || !strings.Contains(err.Error(), want) {
				t.Fatalf("open = %v, want a refusal naming \"x\" and %q", err, want)
			}
		})
	}
}

// TestOpenRefusesQueuedManifest: a snapshot manifest whose "pending" list
// (the async ingest queue earlier builds persisted) holds tickets refuses
// to open, naming the database and the ticket count. An empty or null
// list is no queue at all and opens.
func TestOpenRefusesQueuedManifest(t *testing.T) {
	for _, tc := range []struct {
		pending string
		refuse  bool
	}{
		{`null`, false},
		{`[]`, false},
		{`[{"ticket":"t1","sources":["<addressbook/>"]},{"ticket":"t2","sources":["<addressbook/>"]}]`, true},
	} {
		data := t.TempDir()
		cat, err := Open(data, testOptions())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cat.Create("x"); err != nil {
			t.Fatal(err)
		}
		if err := cat.Close(); err != nil {
			t.Fatal(err)
		}
		manifest := filepath.Join(data, "x", stateDirName, "manifest.json")
		raw, err := os.ReadFile(manifest)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]json.RawMessage
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		m["pending"] = json.RawMessage(tc.pending)
		if raw, err = json.Marshal(m); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(manifest, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		cat, err = Open(data, testOptions())
		if !tc.refuse {
			if err != nil {
				t.Fatalf("pending %s: %v", tc.pending, err)
			}
			cat.Close()
			continue
		}
		if err == nil {
			cat.Close()
			t.Fatal("a manifest with pending tickets opened")
		}
		for _, part := range []string{`"x"`, "2 pending ticket(s)", "async ingest queue"} {
			if !strings.Contains(err.Error(), part) {
				t.Fatalf("error %q does not name %q", err, part)
			}
		}
	}
}
