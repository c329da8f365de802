// Package queryindex holds one shim: the query planner reads the
// document's own cached pxml.Summary.
package queryindex

import "repro/internal/pxml"

// Build returns the document's summary. Kept for benchmark/trace.go; goes
// with it (ROADMAP item 3).
func Build(t *pxml.Tree) *pxml.Summary { return t.Summary() }
