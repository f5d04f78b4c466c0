package admit

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually advanced time source.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

func TestParseDeadline(t *testing.T) {
	cases := []struct {
		in   string
		def  time.Duration
		want time.Duration
		bad  bool
	}{
		{"", 250 * time.Millisecond, 250 * time.Millisecond, false},
		{"", 0, 0, false},
		{"100", 0, 100 * time.Millisecond, false},
		{"  100  ", 0, 100 * time.Millisecond, false},
		{"250ms", 0, 250 * time.Millisecond, false},
		{"2s", 0, 2 * time.Second, false},
		{"0", time.Second, 0, false}, // explicit zero overrides the default
		{"-5", 0, 0, true},
		{"-5ms", 0, 0, true},
		{"soon", 0, 0, true},
	}
	for _, c := range cases {
		got, err := ParseDeadline(c.in, c.def)
		if c.bad {
			if err == nil {
				t.Errorf("ParseDeadline(%q) accepted, want error", c.in)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("ParseDeadline(%q, %v) = %v, %v; want %v", c.in, c.def, got, err, c.want)
		}
	}
}

func TestRetryAfterSeconds(t *testing.T) {
	for _, c := range []struct {
		in   time.Duration
		want int
	}{
		{0, 1}, {time.Millisecond, 1}, {time.Second, 1},
		{1001 * time.Millisecond, 2}, {2500 * time.Millisecond, 3},
	} {
		if got := RetryAfterSeconds(c.in); got != c.want {
			t.Errorf("RetryAfterSeconds(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestQuotaBurstAndRefill(t *testing.T) {
	clk := newFakeClock()
	q := NewQuota(QuotaConfig{Rate: 10, Burst: 3, Clock: clk.Now})

	// The full burst is available immediately, then the bucket is dry.
	for i := 0; i < 3; i++ {
		if ok, _ := q.Allow("acme"); !ok {
			t.Fatalf("burst request %d refused", i)
		}
	}
	ok, retry := q.Allow("acme")
	if ok {
		t.Fatal("request beyond burst admitted")
	}
	if retry <= 0 || retry > 100*time.Millisecond {
		t.Fatalf("retry hint %v, want (0, 100ms] at 10 rps", retry)
	}

	// Tenants are independent.
	if ok, _ := q.Allow("other"); !ok {
		t.Fatal("fresh tenant refused while another is throttled")
	}

	// Refill at 10 rps: 100ms buys exactly one token.
	clk.Advance(100 * time.Millisecond)
	if ok, _ := q.Allow("acme"); !ok {
		t.Fatal("request refused after refill interval")
	}
	if ok, _ := q.Allow("acme"); ok {
		t.Fatal("second request admitted from a single refilled token")
	}

	// A long idle period caps at the burst, not the elapsed time.
	clk.Advance(time.Hour)
	admitted := 0
	for i := 0; i < 10; i++ {
		if ok, _ := q.Allow("acme"); ok {
			admitted++
		}
	}
	if admitted != 3 {
		t.Fatalf("admitted %d after long idle, want burst of 3", admitted)
	}
}

func TestQuotaDefaultPoolShared(t *testing.T) {
	clk := newFakeClock()
	q := NewQuota(QuotaConfig{Rate: 1, Burst: 2, Clock: clk.Now})
	// Anonymous requests (empty tenant) share one bucket.
	if ok, _ := q.Allow(""); !ok {
		t.Fatal("first anonymous request refused")
	}
	if ok, _ := q.Allow(""); !ok {
		t.Fatal("second anonymous request refused")
	}
	if ok, _ := q.Allow(""); ok {
		t.Fatal("anonymous pool did not throttle collectively")
	}
}

func TestQuotaEvictsFullBuckets(t *testing.T) {
	clk := newFakeClock()
	q := NewQuota(QuotaConfig{Rate: 100, Burst: 1, MaxTenants: 4, Clock: clk.Now})
	for i := 0; i < 4; i++ {
		q.Allow(string(rune('a' + i)))
	}
	if n := q.Tenants(); n != 4 {
		t.Fatalf("tracked %d tenants, want 4", n)
	}
	// After refill, a new tenant evicts the full buckets instead of
	// growing the table.
	clk.Advance(time.Second)
	q.Allow("newcomer")
	if n := q.Tenants(); n > 4 {
		t.Fatalf("tracked %d tenants after eviction, want <= 4", n)
	}
	// Eviction is lossless: an evicted tenant comes back with a full
	// (here: single-token) bucket and is admitted.
	if ok, _ := q.Allow("a"); !ok {
		t.Fatal("evicted tenant refused on return")
	}
}

func TestQuotaNilAndDisabled(t *testing.T) {
	if q := NewQuota(QuotaConfig{Rate: 0}); q != nil {
		t.Fatal("Rate 0 must disable the quota")
	}
	var q *Quota
	if ok, _ := q.Allow("anyone"); !ok {
		t.Fatal("nil quota must admit")
	}
	if q.Tenants() != 0 {
		t.Fatal("nil quota tracks tenants")
	}
}

func TestBreakerTripAndRecover(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker(BreakerConfig{Threshold: 3, Cooldown: time.Second, Clock: clk.Now})

	// Below threshold: stays closed, failures accumulate.
	for i := 0; i < 2; i++ {
		if tripped := b.Failure(); tripped {
			t.Fatalf("tripped after %d failures, threshold 3", i+1)
		}
	}
	if s := b.State(); s != BreakerClosed {
		t.Fatalf("state %v before threshold", s)
	}
	// A success resets the streak.
	b.Success()
	for i := 0; i < 2; i++ {
		b.Failure()
	}
	if s := b.State(); s != BreakerClosed {
		t.Fatal("success did not reset the failure streak")
	}

	// Third consecutive failure trips it.
	if tripped := b.Failure(); !tripped {
		t.Fatal("threshold failure did not report the trip")
	}
	if s := b.State(); s != BreakerOpen {
		t.Fatalf("state %v after trip, want open", s)
	}

	// Open: refused with the remaining cooldown.
	ok, retry := b.Allow()
	if ok {
		t.Fatal("open breaker admitted a call")
	}
	if retry <= 0 || retry > time.Second {
		t.Fatalf("retry hint %v, want (0, 1s]", retry)
	}

	// Cooldown elapses: exactly one probe is admitted.
	clk.Advance(time.Second + time.Millisecond)
	if ok, _ := b.Allow(); !ok {
		t.Fatal("probe refused after cooldown")
	}
	if s := b.State(); s != BreakerHalfOpen {
		t.Fatalf("state %v during probe, want half-open", s)
	}
	if ok, _ := b.Allow(); ok {
		t.Fatal("second call admitted while probe outstanding")
	}

	// Probe succeeds: closed again, streak cleared.
	b.Success()
	if s := b.State(); s != BreakerClosed {
		t.Fatalf("state %v after successful probe, want closed", s)
	}
	if ok, _ := b.Allow(); !ok {
		t.Fatal("closed breaker refused")
	}
}

func TestBreakerFailedProbeReopens(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker(BreakerConfig{Threshold: 1, Cooldown: time.Second, Clock: clk.Now})
	if tripped := b.Failure(); !tripped { // trips immediately at threshold 1
		t.Fatal("threshold-1 failure did not report the trip")
	}
	clk.Advance(2 * time.Second)
	if ok, _ := b.Allow(); !ok {
		t.Fatal("probe refused")
	}
	if tripped := b.Failure(); !tripped {
		t.Fatal("failed probe did not report a trip")
	}
	if s := b.State(); s != BreakerOpen {
		t.Fatalf("state %v after failed probe, want open", s)
	}
	// Failures while already open extend the streak but are not trips.
	if tripped := b.Failure(); tripped {
		t.Fatal("failure on an open breaker reported a second trip")
	}
	// The fresh cooldown starts at the failed probe.
	if ok, _ := b.Allow(); ok {
		t.Fatal("re-opened breaker admitted before the new cooldown")
	}
	clk.Advance(time.Second + time.Millisecond)
	if ok, _ := b.Allow(); !ok {
		t.Fatal("probe refused after second cooldown")
	}
	b.Success()
	if s := b.State(); s != BreakerClosed {
		t.Fatalf("state %v, want closed", s)
	}
}

func TestBreakerNilAndDisabled(t *testing.T) {
	if b := NewBreaker(BreakerConfig{Threshold: 0}); b != nil {
		t.Fatal("threshold 0 must disable the breaker")
	}
	var b *Breaker
	if ok, _ := b.Allow(); !ok {
		t.Fatal("nil breaker must admit")
	}
	b.Success()
	if b.Failure() {
		t.Fatal("nil breaker reported a trip")
	}
	if b.State() != BreakerClosed {
		t.Fatal("nil breaker state not closed")
	}
}

// TestBreakerConcurrent hammers the breaker from many goroutines under
// -race; the single-probe invariant must hold (at most one Allow returns
// true per half-open window).
func TestBreakerConcurrent(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker(BreakerConfig{Threshold: 1, Cooldown: time.Millisecond, Clock: clk.Now})
	b.Failure()
	clk.Advance(2 * time.Millisecond)
	var admitted sync.Map
	var wg sync.WaitGroup
	var count int64
	var mu sync.Mutex
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if ok, _ := b.Allow(); ok {
				admitted.Store(i, true)
				mu.Lock()
				count++
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	if count != 1 {
		t.Fatalf("%d probes admitted in one half-open window, want 1", count)
	}
}
