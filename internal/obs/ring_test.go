package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// finishedTrace builds a finished trace with a chosen duration (by
// back-dating Start) and status.
// finishedTrace is a finished trace that took exactly dur. Finish measures
// Dur from the clock, which adds the time between the two clock reads; on
// a loaded machine that can exceed the microsecond steps the ordering
// tests rely on, so the helper sets the duration it was asked for.
func finishedTrace(id string, dur time.Duration, status int) *Trace {
	tr := NewRequestTrace(id)
	tr.Start = time.Now().Add(-dur)
	tr.Finish(status, 0, 0, "hit", "")
	tr.Dur = dur
	return tr
}

func recentIDs(r *TraceRing) []string {
	out := []string{}
	for _, s := range r.Recent() {
		out = append(out, s.RequestID)
	}
	return out
}

func TestTraceRingRecentEviction(t *testing.T) {
	r := NewTraceRing(3, 2, 2)
	for i := 0; i < 5; i++ {
		r.Add(finishedTrace(fmt.Sprintf("r%d", i), time.Duration(i)*time.Millisecond, 200))
	}
	if r.Total() != 5 {
		t.Fatalf("Total %d, want 5", r.Total())
	}
	// Newest first, oldest two evicted.
	got := recentIDs(r)
	want := []string{"r4", "r3", "r2"}
	if len(got) != len(want) {
		t.Fatalf("recent %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("recent %v, want %v", got, want)
		}
	}
}

func TestTraceRingSlowestRetention(t *testing.T) {
	r := NewTraceRing(2, 3, 2)
	// A slow early request must survive arbitrarily many fast later ones.
	r.Add(finishedTrace("slow", 500*time.Millisecond, 200))
	for i := 0; i < 20; i++ {
		r.Add(finishedTrace(fmt.Sprintf("fast%d", i), time.Duration(i+1)*time.Microsecond, 200))
	}
	slow := r.Slowest()
	if len(slow) != 3 {
		t.Fatalf("slowest holds %d, want 3", len(slow))
	}
	if slow[0].RequestID != "slow" {
		t.Fatalf("slowest[0] = %s, want the 500ms request", slow[0].RequestID)
	}
	for i := 1; i < len(slow); i++ {
		if slow[i-1].Dur < slow[i].Dur {
			t.Fatalf("slowest not sorted desc: %v then %v", slow[i-1].Dur, slow[i].Dur)
		}
	}
	// The two runners-up must be the slowest fast ones (19µs, 18µs).
	if slow[1].RequestID != "fast19" || slow[2].RequestID != "fast18" {
		t.Fatalf("runners-up %s, %s", slow[1].RequestID, slow[2].RequestID)
	}
}

func TestTraceRingErroredBucket(t *testing.T) {
	r := NewTraceRing(2, 2, 2)
	r.Add(finishedTrace("ok", time.Millisecond, 200))
	r.Add(finishedTrace("e1", time.Millisecond, 429))
	r.Add(finishedTrace("e2", time.Millisecond, 500))
	r.Add(finishedTrace("e3", time.Millisecond, 404))
	errored := r.Errored()
	if len(errored) != 2 {
		t.Fatalf("errored holds %d, want 2", len(errored))
	}
	if errored[0].RequestID != "e3" || errored[1].RequestID != "e2" {
		t.Fatalf("errored newest-first: %s, %s", errored[0].RequestID, errored[1].RequestID)
	}
}

func TestTraceRingNilSafety(t *testing.T) {
	var nilRing *TraceRing
	nilRing.Add(finishedTrace("x", time.Millisecond, 200)) // no-op
	if nilRing.Total() != 0 || nilRing.Recent() != nil || nilRing.Slowest() != nil || nilRing.Errored() != nil {
		t.Fatal("nil ring not inert")
	}
	r := NewTraceRing(0, 0, 0)
	r.Add(nil) // no-op
	if r.Total() != 0 {
		t.Fatalf("nil trace counted: %d", r.Total())
	}
}

func TestTraceRingConcurrent(t *testing.T) {
	r := NewTraceRing(8, 4, 4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				status := 200
				if i%5 == 0 {
					status = 503
				}
				r.Add(finishedTrace(fmt.Sprintf("g%d-%d", g, i), time.Duration(i)*time.Microsecond, status))
			}
		}(g)
	}
	for i := 0; i < 20; i++ {
		r.Recent()
		r.Slowest()
		r.Errored()
	}
	wg.Wait()
	if r.Total() != 200 {
		t.Fatalf("Total %d, want 200", r.Total())
	}
	if len(r.Recent()) != 8 || len(r.Slowest()) != 4 || len(r.Errored()) != 4 {
		t.Fatalf("bucket sizes %d/%d/%d", len(r.Recent()), len(r.Slowest()), len(r.Errored()))
	}
}
