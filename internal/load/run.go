package load

import (
	"context"
	"sync"
	"time"
)

// Sample is one fired request as a driver hands it to its sink. Due, Sent
// and Done are offsets from the run's start; a closed-loop request is due
// the moment its client gets to it, so Due == Sent there. The latency a
// run reports is Done − Due and its generator lag Sent − Due; the embedded
// Result's Latency is the bare round trip, Done − Sent.
type Sample struct {
	Request   Request
	Client    int // closed loop: which client fired it; 0 in open loop
	Seq       int // position in the client's sequence, or in the plan
	Due, Sent time.Duration
	Done      time.Duration
	Result
}

// Run fires the plan open-loop against baseURL: every request launches at
// its planned offset regardless of how many predecessors are still in
// flight, so a slow server faces mounting concurrency instead of a politely
// backing-off client. Each fired request reaches sink (serially) as a
// Sample timed from its due time: a stall — in the server or in this
// generator — is charged to the requests it delayed instead of vanishing
// (coordinated omission), and Sample.Sent − Sample.Due is the generator's
// own share. Run returns after the last response, or ctx's error once
// every request already launched has finished.
func Run(ctx context.Context, baseURL string, plan *Plan, cfg Config, sink func(Sample)) error {
	// One connection per planned request is the ceiling on what can be in
	// flight at once; the transport only ever opens as many as actually are.
	client := NewClient(baseURL, len(plan.Requests))
	defer client.Close()
	var mu sync.Mutex
	var wg sync.WaitGroup
	defer wg.Wait()
	start := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for i, rq := range plan.Requests {
		if wait := rq.At - time.Since(start); wait > 0 {
			timer.Reset(wait)
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-timer.C:
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sm := Sample{Request: rq, Seq: i, Due: rq.At, Sent: time.Since(start)}
			sm.Result = client.Fire(ctx, rq, cfg.Deadline)
			sm.Done = time.Since(start)
			mu.Lock()
			defer mu.Unlock()
			sink(sm)
		}()
	}
	return nil
}

// Storm is the closed-loop driver's script: Clients concurrent clients,
// each firing its own sequence of requests back to back. What a client
// sends is a pure function of Seed — client w draws from its own fork of the stream —
// so a storm that found a bug reproduces under the same seed.
type Storm struct {
	Seed    uint64
	Clients int
	// Next returns client w's i-th request, drawing whatever it needs from
	// the client's private stream r, or false when the client is done.
	Next func(r *Rand, w, i int) (Request, bool)
	// Deadline is sent as X-Request-Deadline; 0 sends none.
	Deadline time.Duration
	// Jitter is the maximum think time a client sleeps between requests
	// (uniform in [0, Jitter), drawn from r after each request); 0 hammers.
	Jitter time.Duration
	// Timeout abandons a request client-side, closing its connection —
	// which is exactly what a disconnect storm wants. 0 waits forever.
	Timeout time.Duration
}

// Run drives the storm against baseURL and returns when every client has
// finished (or ctx is done). Each fired request reaches sink serially.
func (st Storm) Run(ctx context.Context, baseURL string, sink func(Sample)) {
	client := NewClient(baseURL, st.Clients)
	defer client.Close()
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < st.Clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := fork(st.Seed, w)
			for i := 0; ctx.Err() == nil; i++ {
				rq, ok := st.Next(&r, w, i)
				if !ok {
					return
				}
				sm := Sample{Request: rq, Client: w, Seq: i, Sent: time.Since(start)}
				sm.Due = sm.Sent
				sm.Result = st.fire(ctx, client, rq)
				sm.Done = time.Since(start)
				mu.Lock()
				sink(sm)
				mu.Unlock()
				if st.Jitter > 0 {
					time.Sleep(time.Duration(r.Next() % uint64(st.Jitter)))
				}
			}
		}()
	}
	wg.Wait()
}

func (st Storm) fire(ctx context.Context, client *Client, rq Request) Result {
	if st.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, st.Timeout)
		defer cancel()
	}
	return client.Fire(ctx, rq, st.Deadline)
}
