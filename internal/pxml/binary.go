// Flat arena binary encoding of probabilistic documents — the payload
// format store snapshots, binary WAL records and binary replication
// frames all carry. Where the XML codec rebuilds a tree node by node
// (re-interning each through the Builder), the arena form writes the
// physical DAG once in dependency order and reads it back into a single
// contiguous allocation:
//
//	[version 1B]
//	[string table: uvarint count, length-prefixed entries] (revision 1 only)
//	[uvarint node count]
//	[node records, children strictly before parents]
//	[root digest, 8B little endian]
//
// A node record is [kind 1B][kind fields][uvarint child count][child
// references as uvarints]. Elem fields are the tag and text as string-table
// indices; poss fields are the 8-byte probability bits. Revisions 1 and 2
// reference a child by its record index. Revision 3, the compact layout,
// references it by its distance back from the parent's record (siblings
// sit just before their parent, so most distances fit one byte), and writes
// a possibility of probability exactly 1 — every certain child of an
// element — as its own record kind, recCertainPoss, with no probability
// bytes; any other probability keeps its 8 bytes, so every float
// round-trips bit for bit. Children always precede their parents, so the
// encoding is acyclic by construction and physical sharing survives the
// round trip exactly. The trailing digest is the structural digest
// (Tree.Digest) of the encoded document, verified on decode.
//
// DecodeArena accepts arbitrary bytes safely: every declared count is
// capped against the input remaining, node records are re-validated
// against the layering invariants (Tree.Validate would accept every
// decoded tree), and bottom-up saturating estimates of the logical node
// count and world-count magnitude reject crafted DAGs whose summaries
// would explode before any summary is computed.
package pxml

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/codec"
)

// BinaryVersion is the self-contained revision of the arena encoding:
// the payload carries its own local string table.
const BinaryVersion = 1

// BinaryVersionShared is the shared-table revision: the payload carries
// no string table of its own — elem tag/text fields are indices into an
// external table (a codec strtab) supplied at decode time, so repeated
// tags across documents and ops are spelled once per table, not once per
// payload. Store v5 documents and WAL v3 records hold it; this build reads
// it and writes BinaryVersionCompact instead.
const BinaryVersionShared = 2

// BinaryVersionCompact is the shared-table revision AppendBinaryShared
// writes (store v6 documents, WAL v4 records): revision 2 with child
// references counted back from the parent and recCertainPoss records.
const BinaryVersionCompact = 3

// recCertainPoss is the revision-3 record kind of a possibility whose
// probability is exactly 1; it carries no probability field.
const recCertainPoss = 3

// Arena decode counters for /stats: total decodes, how many ran in
// zero-copy mode, and how many were shared-table payloads.
var arenaDecodes, arenaZeroCopy, arenaShared atomic.Uint64

// ArenaDecodeStats reports the process-wide arena decode counters.
func ArenaDecodeStats() (decodes, zeroCopy, shared uint64) {
	return arenaDecodes.Load(), arenaZeroCopy.Load(), arenaShared.Load()
}

// DecodeArenaOptions tunes DecodeArenaWith.
type DecodeArenaOptions struct {
	// Strings is the external table BinaryVersionShared payloads resolve
	// their tag/text indices against. Self-contained payloads ignore it.
	Strings []string
	// ZeroCopy keeps node tag/text strings as views into the input
	// buffer instead of copies. The caller must guarantee the buffer
	// outlives every tree that shares nodes with the decoded one and is
	// never modified — in practice a heap buffer (a store document read
	// whole) that the decoded strings themselves keep alive. Applies to
	// the local table of self-contained payloads; shared-table payloads
	// inherit whatever lifetime opts.Strings has.
	ZeroCopy bool
	// ExpectLogical, when positive, is checked against the decoder's own
	// bottom-up logical node count — the manifest cross-check that Load
	// otherwise pays a full NodeCount() traversal for.
	ExpectLogical int64
}

// arenaIndex is the postorder write order of a document's distinct nodes
// and each node's position in it, which the arena encodings share.
type arenaIndex struct {
	order []*Node
	index map[*Node]uint64
	stack []arenaFrame
}

type arenaFrame struct {
	n    *Node
	next int
}

// arenaIndexes pools the arena encoders' indexes, as visitedSets pools
// WalkUnique's sets, so a warm append of a source allocates no map.
var arenaIndexes = sync.Pool{New: func() any { return &arenaIndex{index: map[*Node]uint64{}} }}

// maxPooledArenaIndex bounds the nodes of an index put back for reuse:
// clearing a map costs its capacity, and one grown by a whole-document
// compaction must not tax every later append of a small source.
const maxPooledArenaIndex = 1 << 13

// arenaOrder computes the arena index of t, taken from the pool; the
// caller hands it back with release.
func (t *Tree) arenaOrder() *arenaIndex {
	a := arenaIndexes.Get().(*arenaIndex)
	// Iterative postorder so document depth never limits the encoder.
	a.stack = append(a.stack, arenaFrame{n: t.root})
	for len(a.stack) > 0 {
		top := &a.stack[len(a.stack)-1]
		if _, done := a.index[top.n]; done {
			a.stack = a.stack[:len(a.stack)-1]
			continue
		}
		if top.next < len(top.n.kids) {
			k := top.n.kids[top.next]
			top.next++
			if _, done := a.index[k]; !done {
				a.stack = append(a.stack, arenaFrame{n: k})
			}
			continue
		}
		a.index[top.n] = uint64(len(a.order))
		a.order = append(a.order, top.n)
		a.stack = a.stack[:len(a.stack)-1]
	}
	return a
}

func (a *arenaIndex) release() {
	if len(a.order) > maxPooledArenaIndex {
		return
	}
	clear(a.index)
	clear(a.order)
	clear(a.stack[:cap(a.stack)])
	a.order, a.stack = a.order[:0], a.stack[:0]
	arenaIndexes.Put(a)
}

// appendArenaBody writes the node records, interning strings through
// intern; compact selects the revision-3 records.
func appendArenaBody(dst []byte, a *arenaIndex, intern func(string) uint64, compact bool) []byte {
	for i, n := range a.order {
		kind := byte(n.kind)
		if compact && n.kind == KindPoss && n.prob == 1 {
			kind = recCertainPoss
		}
		dst = append(dst, kind)
		switch kind {
		case byte(KindElem):
			dst = codec.AppendUvarint(dst, intern(n.tag))
			dst = codec.AppendUvarint(dst, intern(n.text))
		case byte(KindPoss):
			dst = codec.AppendFloat64(dst, n.prob)
		}
		dst = codec.AppendUvarint(dst, uint64(len(n.kids)))
		for _, k := range n.kids {
			ref := a.index[k]
			if compact {
				ref = uint64(i) - ref
			}
			dst = codec.AppendUvarint(dst, ref)
		}
	}
	return dst
}

const (
	// maxLogicalNodes caps the decoded document's logical node count
	// (occurrences, counting shared subtrees once per reference). Deep
	// sharing lets a few hundred physical nodes imply astronomically many
	// logical ones; beyond 2^40 nothing downstream (stats, manifests)
	// could represent the document meaningfully anyway.
	maxLogicalNodes = uint64(1) << 40
	// maxWorldBits caps the magnitude of the world count: the number of
	// bits of the big.Int Summary would compute. 2^(2^20) worlds is far
	// beyond any legitimate document; without the cap a small crafted
	// input could make its first summary allocate megabit integers.
	maxWorldBits = uint64(1) << 20
)

// AppendBinary appends the document in flat arena form. The encoding
// preserves physical sharing: a subtree referenced from several parents
// is written once and referenced by index.
func (t *Tree) AppendBinary(dst []byte) []byte {
	var strings codec.StringTable
	a := t.arenaOrder()
	defer a.release()
	body := appendArenaBody(nil, a, strings.Intern, false)
	dst = append(dst, BinaryVersion)
	dst = strings.AppendTo(dst)
	dst = codec.AppendUvarint(dst, uint64(len(a.order)))
	dst = append(dst, body...)
	return codec.AppendUint64(dst, t.Digest())
}

// AppendBinaryShared appends the document in shared-table arena form,
// revision 3 (BinaryVersionCompact): tag/text strings are interned into
// tab and the payload carries only their indices. A decoder needs tab's
// entries (shipped separately as a strtab delta) to resolve them.
func (t *Tree) AppendBinaryShared(dst []byte, tab *codec.SharedStrings) []byte {
	return t.appendShared(dst, tab, BinaryVersionCompact)
}

// appendShared writes the shared-table revision v (2 or 3).
func (t *Tree) appendShared(dst []byte, tab *codec.SharedStrings, v byte) []byte {
	a := t.arenaOrder()
	defer a.release()
	dst = append(dst, v)
	dst = codec.AppendUvarint(dst, uint64(len(a.order)))
	dst = appendArenaBody(dst, a, tab.Intern, v == BinaryVersionCompact)
	return codec.AppendUint64(dst, t.Digest())
}

// DecodeArena decodes a document encoded by AppendBinary: one sequential
// pass over the input into one contiguous node arena, then a digest
// check. Any input that is not a valid encoding of a valid document —
// truncation, layering violations, forged counts, digest mismatch —
// returns an error; DecodeArena never panics. The decoded tree satisfies
// every Tree.Validate invariant by construction.
func DecodeArena(data []byte) (*Tree, error) {
	return DecodeArenaWith(data, DecodeArenaOptions{})
}

// DecodeArenaWith decodes a self-contained (BinaryVersion) or
// shared-table (BinaryVersionShared, BinaryVersionCompact) arena payload
// under opts. It keeps every safety property of DecodeArena; the opts
// only change where strings come from and add the manifest's
// logical-count check.
func DecodeArenaWith(data []byte, opts DecodeArenaOptions) (*Tree, error) {
	r := codec.NewReader(data)
	v := r.Byte()
	if r.Err() == nil && (v < BinaryVersion || v > BinaryVersionCompact) {
		return nil, fmt.Errorf("pxml: unsupported binary document version %d (want %d to %d)", v, BinaryVersion, BinaryVersionCompact)
	}
	compact := v == BinaryVersionCompact
	var strs []string
	if v != BinaryVersion {
		strs = opts.Strings
	} else if opts.ZeroCopy {
		strs = r.StringTableView()
	} else {
		strs = r.StringTable()
	}
	count := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	// Every node record costs at least two bytes (kind + child count), so
	// a count beyond half the remaining input is forged. This also bounds
	// the arena allocation by the input size.
	if count == 0 || count > uint64(r.Len())/2+1 {
		return nil, fmt.Errorf("%w: implausible node count %d for %d remaining bytes", codec.ErrInvalid, count, r.Len())
	}
	arena := make([]Node, count)
	var (
		idxBuf  []uint64 // child indices of all nodes, concatenated
		spans   = make([]int, count)
		logical = make([]uint64, count)
		wbits   = make([]uint64, count)
		refs    = make([]uint64, count) // incoming reference counts
	)
	for i := uint64(0); i < count; i++ {
		n := &arena[i]
		n.kind = Kind(r.Byte())
		switch {
		case compact && n.kind == recCertainPoss:
			n.kind, n.prob = KindPoss, 1
		case n.kind == KindProb:
		case n.kind == KindPoss:
			p := r.Float64()
			if r.Err() == nil {
				if math.IsNaN(p) || p <= 0 || p > 1+ProbEpsilon {
					return nil, fmt.Errorf("%w: node %d probability %g out of range (0,1]", codec.ErrInvalid, i, p)
				}
				if p > 1 {
					p = 1
				}
				n.prob = p
			}
		case n.kind == KindElem:
			tag := r.Uvarint()
			text := r.Uvarint()
			if r.Err() == nil {
				if tag >= uint64(len(strs)) || text >= uint64(len(strs)) {
					return nil, fmt.Errorf("%w: node %d references string %d of %d", codec.ErrInvalid, i, max(tag, text), len(strs))
				}
				if strs[tag] == "" {
					return nil, fmt.Errorf("%w: node %d has an empty tag", codec.ErrInvalid, i)
				}
				n.tag, n.text = strs[tag], strs[text]
			}
		default:
			if r.Err() == nil {
				return nil, fmt.Errorf("%w: node %d has unknown kind %d", codec.ErrInvalid, i, n.kind)
			}
		}
		nkids := r.Uvarint()
		if err := r.Err(); err != nil {
			return nil, err
		}
		// A child index costs at least one byte.
		if nkids > uint64(r.Len()) {
			return nil, fmt.Errorf("%w: node %d declares %d children with %d bytes remaining", codec.ErrInvalid, i, nkids, r.Len())
		}
		if n.kind == KindProb && nkids == 0 {
			return nil, fmt.Errorf("%w: node %d is a prob node without possibilities", codec.ErrInvalid, i)
		}
		var (
			logicalSum uint64 = 1
			bitsSum    uint64
			bitsMax    uint64
			probSum    float64
		)
		wantKid := childKind(n.kind)
		for j := uint64(0); j < nkids; j++ {
			k := r.Uvarint()
			if err := r.Err(); err != nil {
				return nil, err
			}
			if compact {
				k = i - k // a distance of 0 or past the first record wraps to k >= i
			}
			if k >= i {
				return nil, fmt.Errorf("%w: node %d references child %d out of order", codec.ErrInvalid, i, k)
			}
			if arena[k].kind != wantKid {
				return nil, fmt.Errorf("%w: node %d (%v) child %d is %v, want %v", codec.ErrInvalid, i, n.kind, k, arena[k].kind, wantKid)
			}
			idxBuf = append(idxBuf, k)
			refs[k]++
			logicalSum = satAdd(logicalSum, logical[k])
			bitsSum = satAdd(bitsSum, wbits[k])
			if wbits[k] > bitsMax {
				bitsMax = wbits[k]
			}
			if n.kind == KindProb {
				probSum += arena[k].prob
			}
		}
		spans[i] = len(idxBuf)
		if n.kind == KindProb && math.Abs(probSum-1) > ProbEpsilon*float64(nkids+1) {
			return nil, fmt.Errorf("%w: node %d possibility probabilities sum to %g, want 1", codec.ErrInvalid, i, probSum)
		}
		logical[i] = logicalSum
		if logicalSum > maxLogicalNodes {
			return nil, fmt.Errorf("%w: logical node count exceeds %d", codec.ErrInvalid, maxLogicalNodes)
		}
		// Worlds sum across alternatives (prob) and multiply across
		// independent children (poss, elem); bound the bit length of the
		// result without computing it.
		if n.kind == KindProb {
			wbits[i] = satAdd(bitsMax, uint64(bits.Len64(nkids))+1)
		} else {
			wbits[i] = satAdd(bitsSum, 1)
		}
		if wbits[i] > maxWorldBits {
			return nil, fmt.Errorf("%w: world count magnitude exceeds 2^%d", codec.ErrInvalid, maxWorldBits)
		}
	}
	digest := r.Uint64()
	if err := r.Finish(); err != nil {
		return nil, err
	}
	for i, rc := range refs[:count-1] {
		if rc == 0 {
			return nil, fmt.Errorf("%w: node %d is unreachable from the root", codec.ErrInvalid, i)
		}
	}
	root := &arena[count-1]
	if root.kind != KindProb {
		return nil, fmt.Errorf("%w: root must be a prob node, got %v", codec.ErrInvalid, root.kind)
	}
	if opts.ExpectLogical > 0 && logical[count-1] != uint64(opts.ExpectLogical) {
		return nil, fmt.Errorf("%w: document holds %d logical nodes, manifest says %d", codec.ErrInvalid, logical[count-1], opts.ExpectLogical)
	}
	// Wire up the kids only now that the arena is fully allocated: the
	// pointers stay valid because the backing array never moves again.
	// Children precede their parents, so each node's digest is computed
	// from digests already set.
	kids := make([]*Node, len(idxBuf))
	for i, k := range idxBuf {
		kids[i] = &arena[k]
	}
	prev := 0
	for i := range arena {
		n := &arena[i]
		if end := spans[i]; end > prev {
			n.kids = kids[prev:end:end]
			prev = end
		}
		n.digest = digestOf(n.kind, n.tag, n.text, n.prob, n.kids)
	}
	if root.digest != digest {
		return nil, fmt.Errorf("%w: document digest %016x differs from trailer %016x", codec.ErrInvalid, root.digest, digest)
	}
	t := &Tree{root: root}
	arenaDecodes.Add(1)
	if opts.ZeroCopy {
		arenaZeroCopy.Add(1)
	}
	if v != BinaryVersion {
		arenaShared.Add(1)
	}
	return t, nil
}

func satAdd(a, b uint64) uint64 {
	if s := a + b; s >= a {
		return s
	}
	return math.MaxUint64
}
