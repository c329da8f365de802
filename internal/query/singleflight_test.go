package query

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestResultCacheSingleflight: N concurrent identical cold queries execute
// the evaluation exactly once. The leader is gated on a channel until every
// waiter has joined the flight, so the collapse is deterministic, not a
// timing accident. Accounting must pin misses==1 (the one execution) and
// collapses==N-1 (the waiters).
func TestResultCacheSingleflight(t *testing.T) {
	c := NewResultCache(8)
	const waiters = 7

	var execs atomic.Int64
	release := make(chan struct{})
	fn := func() (Result, error) {
		execs.Add(1)
		<-release
		return Result{Method: MethodExact}, nil
	}

	var wg sync.WaitGroup
	outcomes := make([]DoOutcome, waiters+1)
	errs := make([]error, waiters+1)
	start := make(chan struct{})
	for i := 0; i <= waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i > 0 {
				<-start // leader enters first
			}
			_, outcomes[i], errs[i] = c.Do(context.Background(), 1, "//a", Options{}, fn)
		}(i)
	}
	// Goroutine 0 is the leader: wait for its flight to register, let the
	// waiters in, and only release the leader once every waiter is counted
	// as a collapse — so the single-execution outcome is deterministic.
	for {
		c.flightMu.Lock()
		n := len(c.flights)
		c.flightMu.Unlock()
		if n == 1 {
			break
		}
		runtime.Gosched()
	}
	close(start)
	for c.Stats().Collapses < waiters {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	if got := execs.Load(); got != 1 {
		t.Fatalf("evaluation ran %d times, want 1", got)
	}
	var executed, shared int
	for i, o := range outcomes {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		switch o {
		case DoExecuted:
			executed++
		case DoShared:
			shared++
		default:
			t.Fatalf("caller %d: unexpected outcome %v", i, o)
		}
	}
	if executed != 1 || shared != waiters {
		t.Fatalf("executed=%d shared=%d, want 1/%d", executed, shared, waiters)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Collapses != int64(waiters) || st.Hits != 0 {
		t.Fatalf("stats = %+v, want misses=1 collapses=%d hits=0", st, waiters)
	}

	// The flight retired after publishing: a late identical query is a hit.
	if _, outcome, err := c.Do(context.Background(), 1, "//a", Options{}, fn); err != nil || outcome != DoHit {
		t.Fatalf("late caller: outcome=%v err=%v, want DoHit", outcome, err)
	}
}

// TestResultCacheSharesParseError: a parse error is deterministic, so the
// callers waiting on a leader whose query fails to parse share its error
// instead of parsing again. The leader is held until every waiter has
// joined, so exactly one miss is recorded; nothing is cached.
func TestResultCacheSharesParseError(t *testing.T) {
	c := NewResultCache(8)
	const src, waiters = "//movie[", 15
	_, want := Compile(src)
	release := make(chan struct{})
	leaderIn := make(chan struct{})
	fn := func() (Result, error) {
		close(leaderIn)
		<-release
		q, err := Compile(src)
		if err != nil {
			return Result{}, err
		}
		t.Errorf("%q compiled to %v", src, q)
		return Result{}, nil
	}
	var wg sync.WaitGroup
	errs := make([]error, waiters+1)
	call := func(i int) {
		defer wg.Done()
		_, _, errs[i] = c.Do(context.Background(), 1, src, Options{}, fn)
	}
	wg.Add(1)
	go call(0)
	<-leaderIn
	for i := 1; i <= waiters; i++ {
		wg.Add(1)
		go call(i)
	}
	for c.Stats().Collapses < waiters {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err == nil || err.Error() != want.Error() {
			t.Fatalf("caller %d: err = %v, want %v", i, err, want)
		}
	}
	if st := c.Stats(); st.Misses != 1 || st.Collapses != waiters || st.Hits != 0 || st.Size != 0 {
		t.Fatalf("stats = %+v, want 1 miss, %d collapses, no entry", st, waiters)
	}
}

// TestResultCacheSingleflightLeaderCanceled: when the leader aborts with a
// cancellation-class error, a waiter does not inherit the failure — it
// retries as the new leader and succeeds.
func TestResultCacheSingleflightLeaderCanceled(t *testing.T) {
	c := NewResultCache(8)
	leaderIn := make(chan struct{})
	leaderOut := make(chan struct{})
	var calls atomic.Int64
	waiterDone := make(chan error, 1)

	go func() {
		_, _, err := c.Do(context.Background(), 2, "//b", Options{}, func() (Result, error) {
			calls.Add(1)
			close(leaderIn)
			<-leaderOut
			return Result{}, context.Canceled
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("leader err = %v, want context.Canceled", err)
		}
	}()
	<-leaderIn
	go func() {
		_, _, err := c.Do(context.Background(), 2, "//b", Options{}, func() (Result, error) {
			calls.Add(1)
			return Result{Method: MethodExact}, nil
		})
		waiterDone <- err
	}()
	// Wait until the second caller is a registered waiter, then release
	// the leader to fail.
	for c.Stats().Collapses < 1 {
		runtime.Gosched()
	}
	close(leaderOut)
	if err := <-waiterDone; err != nil {
		t.Fatalf("waiter err = %v, want retry success", err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("evaluation ran %d times, want 2 (leader + retry)", got)
	}
}

// TestResultCacheSingleflightWaiterCanceled: a waiter whose own context is
// canceled stops waiting and reports its ctx error without disturbing the
// leader.
func TestResultCacheSingleflightWaiterCanceled(t *testing.T) {
	c := NewResultCache(8)
	leaderIn := make(chan struct{})
	leaderOut := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), 3, "//c", Options{}, func() (Result, error) {
			close(leaderIn)
			<-leaderOut
			return Result{Method: MethodExact}, nil
		})
		leaderDone <- err
	}()
	<-leaderIn
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, outcome, err := c.Do(ctx, 3, "//c", Options{}, func() (Result, error) {
		t.Error("canceled waiter must not execute")
		return Result{}, nil
	})
	if !errors.Is(err, context.Canceled) || outcome != DoShared {
		t.Fatalf("waiter: outcome=%v err=%v, want DoShared/context.Canceled", outcome, err)
	}
	close(leaderOut)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader err = %v", err)
	}
}
