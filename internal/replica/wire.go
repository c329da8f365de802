// Wire types of the replication protocol. They live in this package —
// not internal/server — so both halves of the protocol (the primary's
// HTTP handlers and the follower's client loop) encode and decode the
// exact same structs and cannot drift apart.
package replica

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/feedback"
	"repro/internal/pxml"
)

// WALPage is one page of GET /dbs/{name}/wal?since=S — the primary's
// committed op log past S, plus the primary's current position for lag
// and divergence accounting. It travels as a wal2 frame stream
// (wirebinary.go).
type WALPage struct {
	Database string
	// Since echoes the request's position.
	Since uint64
	// LastSeq and Digest are a consistent (applied sequence, tree digest)
	// pair of the serving node at response time. A follower whose
	// lastApplied reaches LastSeq must hold a tree with this digest;
	// anything else is divergence.
	LastSeq uint64
	Digest  string
	// Epoch is the cluster epoch the serving node commits under. A page
	// from an epoch below the follower's own is stale — the sender was
	// deposed — and must be rejected, never resynced from.
	Epoch uint64
	// Records are the shipped ops, oldest first, starting at Since+1. An
	// empty page means the follower is caught up (the long-poll wait
	// expired without new commits).
	Records []catalog.WALRecord
}

// SnapshotPayload is GET /dbs/{name}/snapshot — the full state a follower
// bootstraps from, mirroring the store snapshot format field for field
// (document, schema as DTD text, manifest counts, log position):
// installing it on the follower goes straight through store.SaveWith. It
// travels as a wal2 frame stream (wirebinary.go).
type SnapshotPayload struct {
	Database string
	// FormatVersion is the store snapshot format this payload mirrors.
	FormatVersion int
	// Seq is the primary log position the state reflects; tailing resumes
	// at Seq+1.
	Seq uint64
	// Epoch is the cluster epoch the state was committed under.
	Epoch uint64
	// Digest is the structural digest of Tree (16 hex digits); the
	// follower verifies its installed tree against it.
	Digest string
	// Tree is the document.
	Tree *pxml.Tree
	// Schema is the DTD knowledge ("" when none).
	Schema string
	// Integrations and Feedback are the integration count and feedback
	// history at Seq.
	Integrations int
	Feedback     []feedback.Event
}

// PrimaryStatus is the body GET /replication returns on a primary (and,
// role aside, on a demoted ex-primary): the membership and per-database
// positions a follower synchronizes against.
type PrimaryStatus struct {
	Role string `json:"role"`
	// Epoch is the node's cluster epoch — the fencing term its commits
	// are stamped with.
	Epoch uint64 `json:"epoch"`
	// Primary is the URL of the node this one believes is the primary:
	// empty on a primary itself, the upstream on a replica, and the
	// promoted successor on a demoted ex-primary. Followers polling a
	// non-primary chase this pointer to re-point after a promotion.
	Primary   string            `json:"primary,omitempty"`
	Databases []PrimaryDBStatus `json:"databases"`
}

// PrimaryDBStatus is one database row of PrimaryStatus.
type PrimaryDBStatus struct {
	Name string `json:"name"`
	// LastSeq and Digest are the consistent (applied sequence, digest)
	// pair of the database's current tree.
	LastSeq uint64 `json:"last_seq"`
	Digest  string `json:"digest"`
	// SnapshotSeq and TailOps describe the on-disk durability position.
	SnapshotSeq uint64 `json:"snapshot_seq"`
	TailOps     uint64 `json:"tail_ops"`
	// Epoch is the cluster epoch the database commits under.
	Epoch uint64 `json:"epoch"`
}

// DigestString renders a tree's structural digest in the protocol's wire
// form (16 hex digits), shared so both ends format it identically.
func DigestString(t *pxml.Tree) string {
	return fmt.Sprintf("%016x", t.Digest())
}
