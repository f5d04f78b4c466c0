package load

import (
	"context"
	"time"
)

// FireBatch fires rq as a batch envelope whatever its size — the one-entry
// batch Fire itself never sends — so a test can put the same query through
// both routes.
func (c *Client) FireBatch(ctx context.Context, rq Request, deadline time.Duration) Result {
	return c.fire(ctx, rq, deadline, true)
}
