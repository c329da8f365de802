package codec

import (
	"strings"
	"testing"
)

func TestSharedStringsInternTruncate(t *testing.T) {
	var tab SharedStrings
	if got := tab.Intern("movie"); got != 0 {
		t.Fatalf("first intern = %d, want 0", got)
	}
	if got := tab.Intern("title"); got != 1 {
		t.Fatalf("second intern = %d, want 1", got)
	}
	if got := tab.Intern("movie"); got != 0 {
		t.Fatalf("re-intern = %d, want 0", got)
	}
	mark := tab.Len()
	tab.Intern("year")
	tab.Intern("genre")
	tab.Truncate(mark)
	if tab.Len() != 2 {
		t.Fatalf("after truncate Len = %d, want 2", tab.Len())
	}
	// A rolled-back string must get a fresh index on re-intern, not a
	// stale one from the deleted map entry.
	if got := tab.Intern("year"); got != 2 {
		t.Fatalf("re-intern after truncate = %d, want 2", got)
	}
}

func TestStrTabDeltaRoundTrip(t *testing.T) {
	var enc SharedStrings
	enc.Intern("movie")
	enc.Intern("title")
	first := enc.AppendDelta(nil, 0)
	mark := enc.Len()
	enc.Intern("year")
	second := enc.AppendDelta(nil, mark)

	var dec StrTab
	for _, payload := range [][]byte{first, second} {
		base, entries, err := DecodeStrTabPayload(payload, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := dec.Apply(base, entries); err != nil {
			t.Fatal(err)
		}
	}
	if dec.Len() != 3 || dec.Strings()[2] != "year" {
		t.Fatalf("replayed table = %q", dec.Strings())
	}

	// Replaying the second delta again must be refused (base mismatch)…
	base, entries, err := DecodeStrTabPayload(second, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.Apply(base, entries); err == nil {
		t.Fatal("replayed delta accepted")
	}
	// …but a base-0 delta resets the table unconditionally.
	if err := dec.Apply(0, []string{"fresh"}); err != nil {
		t.Fatal(err)
	}
	if dec.Len() != 1 || dec.Strings()[0] != "fresh" {
		t.Fatalf("after reset table = %q", dec.Strings())
	}
}

func TestStrTabZeroCopyAliases(t *testing.T) {
	payload := AppendStrTabPayload(nil, 0, []string{"alpha", "beta"})
	_, entries, err := DecodeStrTabPayload(payload, true)
	if err != nil {
		t.Fatal(err)
	}
	if entries[0] != "alpha" || entries[1] != "beta" {
		t.Fatalf("zero-copy entries = %q", entries)
	}
	// Empty strings must be safe in zero-copy mode (no &b[0] on nil).
	payload = AppendStrTabPayload(nil, 0, []string{"", "x"})
	_, entries, err = DecodeStrTabPayload(payload, true)
	if err != nil {
		t.Fatal(err)
	}
	if entries[0] != "" || entries[1] != "x" {
		t.Fatalf("zero-copy empty entry = %q", entries)
	}
}

func TestStrTabRejectsForgedCount(t *testing.T) {
	payload := AppendUvarint(nil, 0)
	payload = AppendUvarint(payload, 1<<40) // entry count far beyond the bytes present
	if _, _, err := DecodeStrTabPayload(payload, false); err == nil {
		t.Fatal("forged count accepted")
	}
	// Trailing garbage after the declared entries is an error too.
	payload = AppendStrTabPayload(nil, 0, []string{"a"})
	payload = append(payload, 0xFF)
	if _, _, err := DecodeStrTabPayload(payload, false); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func FuzzDecodeStrTab(f *testing.F) {
	f.Add(AppendStrTabPayload(nil, 0, []string{"movie", "title", strings.Repeat("x", 300)}))
	f.Add(AppendStrTabPayload(nil, 7, []string{""}))
	f.Add([]byte{})
	f.Add([]byte{0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Must never panic or allocate unboundedly; on success the
		// result must re-encode to an equivalent payload.
		base, entries, err := DecodeStrTabPayload(data, false)
		if err != nil {
			return
		}
		re := AppendStrTabPayload(nil, base, entries)
		b2, e2, err := DecodeStrTabPayload(re, true)
		if err != nil {
			t.Fatalf("re-encoded payload rejected: %v", err)
		}
		if b2 != base || len(e2) != len(entries) {
			t.Fatalf("round trip changed shape: base %d→%d, %d→%d entries", base, b2, len(entries), len(e2))
		}
		for i := range entries {
			if entries[i] != e2[i] {
				t.Fatalf("entry %d changed: %q → %q", i, entries[i], e2[i])
			}
		}
	})
}

// TestTabMark: a mark is a function of the entries and of where each one
// ends, grows the same whether the table arrived in one delta or in many,
// follows a StrTab through Apply and Reset, and survives its rendering —
// which ParseTabMark reads strictly.
func TestTabMark(t *testing.T) {
	whole := TabMark{}.Extend([]string{"ab", "c", ""})
	if whole.Len != 3 || whole == (TabMark{}.Extend([]string{"a", "bc", ""})) || whole == (TabMark{}.Extend([]string{"ab", "", "c"})) {
		t.Fatalf("mark %v does not tell entry boundaries or order apart", whole)
	}
	if step := (TabMark{}).Extend([]string{"ab"}).Extend(nil).Extend([]string{"c", ""}); step != whole {
		t.Fatalf("extended in steps: %v, at once: %v", step, whole)
	}
	var tab StrTab
	if tab.Mark() != (TabMark{}) {
		t.Fatalf("empty table has mark %v", tab.Mark())
	}
	for _, d := range []struct {
		base    uint64
		entries []string
	}{{0, []string{"ab"}}, {1, []string{"c", ""}}} {
		if err := tab.Apply(d.base, d.entries); err != nil {
			t.Fatal(err)
		}
	}
	if tab.Mark() != whole {
		t.Fatalf("table of two deltas has mark %v, want %v", tab.Mark(), whole)
	}
	if err := tab.Apply(7, []string{"x"}); err == nil || tab.Mark() != whole {
		t.Fatalf("a refused delta (err %v) moved the mark to %v", err, tab.Mark())
	}
	if err := tab.Apply(0, []string{"z"}); err != nil || tab.Mark() != (TabMark{}.Extend([]string{"z"})) {
		t.Fatalf("a base-0 delta leaves mark %v (err %v)", tab.Mark(), err)
	}
	if tab.Reset(); tab.Mark() != (TabMark{}) {
		t.Fatalf("reset table has mark %v", tab.Mark())
	}
	for _, m := range []TabMark{{}, whole, {Len: 1 << 20, Sum: 0xffffffff}, {Len: 7}} {
		if got, err := ParseTabMark(m.String()); err != nil || got != m {
			t.Fatalf("%v renders as %q and parses as %v (err %v)", m, m.String(), got, err)
		}
	}
	if m, err := ParseTabMark(""); err != nil || m != (TabMark{}) {
		t.Fatalf(`"" parses as %v (err %v)`, m, err)
	}
	for _, bad := range []string{"x", "3", "3-", "-3-00000000", "3-0", "3-0000000g", "3-00000000 ", "03-00000000", "3-0000000A", "3 -00000000"} {
		if m, err := ParseTabMark(bad); err == nil {
			t.Fatalf("%q parsed as %v", bad, m)
		}
	}
}
