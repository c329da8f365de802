// Promotion and step-down: the failover half of the replication story.
//
// POST /promote turns a replica server into the cluster's primary:
//
//  1. drain  — a best-effort final catch-up against the old primary
//     (skipped silently when it is already dead, which is the usual
//     reason anyone promotes);
//  2. fence  — the sync loops stop for good, then every database's
//     epoch is raised to (highest witnessed)+1 and the raise is made
//     durable (a snapshot manifest carrying the new epoch) BEFORE the
//     node accepts a single write, so a crash right after promotion
//     can never come back believing in the old epoch;
//  3. flip   — the role state swaps atomically: mutations stop 403ing,
//     /replication starts reporting "primary" at the new epoch, and
//     surviving replicas re-point through their membership loops;
//  4. notify — a background fencing goroutine tells the old primary to
//     step down (POST /stepdown with the new epoch and this node's
//     URL), retrying with backoff so an old primary that restarts
//     minutes later is still told where the cluster went. The epoch
//     checks on /wal and ApplyReplicated make this notification an
//     optimization, not a safety requirement: a stale primary's ships
//     are rejected (ErrStaleEpoch) whether or not it ever hears the
//     news.
//
// POST /stepdown is the receiving end: a primary told (with proof — a
// higher epoch) that the cluster moved on flips itself read-only and
// discloses the new primary to its clients and followers.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"time"
)

const (
	// promoteDrainTimeout bounds the best-effort final catch-up against
	// the (possibly dead) old primary before fencing.
	promoteDrainTimeout = 2 * time.Second
	// fence retry schedule: the old primary may be down right now and
	// restart much later; keep telling it for a while.
	fenceMinBackoff = 50 * time.Millisecond
	fenceMaxBackoff = 2 * time.Second
	fenceGiveUpAt   = 5 * time.Minute
)

// PromoteRequest is the optional /promote body.
type PromoteRequest struct {
	// AdvertiseURL is the base URL surviving replicas and redirected
	// clients should reach this node at. Empty: derived from the
	// request's Host header.
	AdvertiseURL string `json:"advertise_url,omitempty"`
}

// PromoteResponse reports a completed promotion.
type PromoteResponse struct {
	Role string `json:"role"`
	// Epoch is the new cluster epoch this node now commits under.
	Epoch uint64 `json:"epoch"`
	// OldPrimary is the node being fenced (told to step down).
	OldPrimary string `json:"old_primary,omitempty"`
	// AdvertiseURL is the address announced to the old primary's clients.
	AdvertiseURL string `json:"advertise_url,omitempty"`
}

// StepdownRequest is the /stepdown body: proof of a newer epoch plus
// where writes go now.
type StepdownRequest struct {
	Epoch   uint64 `json:"epoch"`
	Primary string `json:"primary,omitempty"`
}

// StepdownResponse reports a completed step-down.
type StepdownResponse struct {
	Role    string `json:"role"`
	Epoch   uint64 `json:"epoch"`
	Primary string `json:"primary,omitempty"`
}

// handlePromote promotes this replica server to primary.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	if s.rep == nil {
		writeError(w, http.StatusConflict, "promote: this node is already a primary")
		return
	}
	var req PromoteRequest
	if err := readJSON(r, &req); err != nil && err != io.EOF {
		writeError(w, statusForBodyError(err, http.StatusBadRequest), "promote: bad request body: %v", err)
		return
	}
	advertise := req.AdvertiseURL
	if advertise == "" && r.Host != "" {
		advertise = "http://" + r.Host
	}
	s.promoteMu.Lock()
	defer s.promoteMu.Unlock()
	if s.isPromoted() {
		// Idempotent: a retried promote reports the standing state.
		writeJSON(w, http.StatusOK, PromoteResponse{
			Role:  s.role(),
			Epoch: s.cat.Epoch(),
		})
		return
	}
	oldPrimary := s.rep.Primary()
	// Best-effort drain: if the old primary is still reachable, pull the
	// last of its committed log before fencing it off. Failure is the
	// expected case (promotion usually follows a primary death) and loses
	// nothing the follower had not already durably applied.
	drainCtx, cancel := context.WithTimeout(r.Context(), promoteDrainTimeout)
	if err := s.rep.WaitCaughtUp(drainCtx); err != nil {
		s.logf("promote: final drain from %s incomplete (continuing): %v", oldPrimary, err)
	}
	cancel()
	// From here the catalog stops following anyone, permanently.
	s.rep.StopSync()
	epoch := s.cat.Epoch() + 1
	if err := s.cat.RaiseEpoch(epoch); err != nil {
		// The fence is not durable; refusing the promotion is the only
		// safe answer (the caller can retry — StopSync is permanent, but
		// RaiseEpoch is idempotent).
		writeError(w, http.StatusInternalServerError, "promote: persisting epoch %d: %v", epoch, err)
		return
	}
	ctx, fenceCancel := context.WithCancel(context.Background())
	s.roleMu.Lock()
	s.promoted = true
	s.readOnly = false
	s.primary = ""
	s.fenceCancel = fenceCancel
	s.roleMu.Unlock()
	s.logf("promote: now primary at epoch %d (was following %s)", epoch, oldPrimary)
	if oldPrimary != "" {
		s.fenceWG.Add(1)
		go s.fenceOldPrimary(ctx, oldPrimary, epoch, advertise)
	}
	writeJSON(w, http.StatusOK, PromoteResponse{
		Role:         "primary",
		Epoch:        epoch,
		OldPrimary:   oldPrimary,
		AdvertiseURL: advertise,
	})
}

// fenceOldPrimary keeps telling the deposed primary to step down until
// it acknowledges, the retry budget runs out, or the server closes. The
// epoch checks make this advisory: a stale primary is rejected on every
// ship whether or not it hears the news — but hearing it turns its 403s
// into helpful redirects to the new primary.
func (s *Server) fenceOldPrimary(ctx context.Context, oldPrimary string, epoch uint64, advertise string) {
	defer s.fenceWG.Done()
	body, err := json.Marshal(StepdownRequest{Epoch: epoch, Primary: advertise})
	if err != nil {
		return
	}
	deadline := time.Now().Add(fenceGiveUpAt)
	backoff := fenceMinBackoff
	client := &http.Client{Timeout: 5 * time.Second}
	for time.Now().Before(deadline) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, oldPrimary+"/stepdown", bytes.NewReader(body))
		if err != nil {
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err == nil {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			if resp.StatusCode < http.StatusInternalServerError {
				// Delivered: the old primary either stepped down (200) or
				// refused with a definite answer (4xx — e.g. it was already
				// at a higher epoch, which a human must untangle).
				s.logf("promote: old primary %s acknowledged step-down to epoch %d (%s)", oldPrimary, epoch, resp.Status)
				return
			}
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > fenceMaxBackoff {
			backoff = fenceMaxBackoff
		}
	}
	s.logf("promote: gave up fencing old primary %s (unreachable for %s); its ships stay rejected by epoch %d", oldPrimary, fenceGiveUpAt, epoch)
}

// handleStepdown demotes this primary after a replica was promoted over
// it. The request must prove a newer epoch; anything else is refused, so
// a stray or replayed step-down cannot take a healthy primary offline.
func (s *Server) handleStepdown(w http.ResponseWriter, r *http.Request) {
	if s.rep != nil && !s.isPromoted() {
		writeError(w, http.StatusServiceUnavailable, "stepdown: only a primary can step down")
		return
	}
	var req StepdownRequest
	if err := readJSON(r, &req); err != nil {
		writeError(w, statusForBodyError(err, http.StatusBadRequest), "stepdown: bad request body: %v", err)
		return
	}
	local := s.cat.Epoch()
	if req.Epoch <= local {
		if s.role() == "demoted" {
			// Already demoted (a retried fence): idempotent success.
			writeJSON(w, http.StatusOK, StepdownResponse{Role: "demoted", Epoch: local, Primary: s.primaryHint()})
			return
		}
		writeError(w, http.StatusConflict, "stepdown: refused — claimed epoch %d does not beat local epoch %d", req.Epoch, local)
		return
	}
	s.stepDown(local, req.Epoch, req.Primary)
	writeJSON(w, http.StatusOK, StepdownResponse{Role: "demoted", Epoch: local, Primary: req.Primary})
}

// stepDown flips a primary read-only after proof of a newer epoch. The
// local epoch is deliberately NOT raised: everything in this node's log
// past the promotion point was committed under the old epoch, and
// keeping the node there is exactly what makes those records (and any
// snapshot of them) detectably stale to the rest of the cluster.
func (s *Server) stepDown(local, seen uint64, newPrimary string) {
	s.roleMu.Lock()
	already := s.demoted
	s.demoted = true
	s.readOnly = true
	if newPrimary != "" {
		s.primary = newPrimary
	}
	s.roleMu.Unlock()
	if !already {
		s.logf("stepdown: demoted at epoch %d (cluster moved to %d, primary %q)", local, seen, newPrimary)
	}
}
