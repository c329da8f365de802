package pxml

import "repro/internal/codec"

// AppendBinaryRev2 writes the shared-table arena revision 2, the layout
// earlier builds wrote into store v5 documents and WAL v3 records.
func (t *Tree) AppendBinaryRev2(dst []byte, tab *codec.SharedStrings) []byte {
	return t.appendShared(dst, tab, BinaryVersionShared)
}
