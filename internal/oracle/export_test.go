package oracle

import "repro/internal/pxml"

// TableNodes lists the elements the Oracle's table holds entries for.
func TableNodes(o *Oracle) []*pxml.Node {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]*pxml.Node, 0, len(o.table))
	for e := range o.table {
		out = append(out, e)
	}
	return out
}
