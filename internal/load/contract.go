package load

import (
	"bytes"
	"fmt"
	"net/http"
)

// Oracle returns the bytes the library's Online answer for q marshals to,
// or nil when it has none.
type Oracle func(q Query) []byte

// Class is what one Outcome means under the serving contract.
type Class int

const (
	// Exact is an unmarked 200: the oracle's bytes, when there is an oracle
	// to compare with.
	Exact Class = iota
	// Degraded is a 200 the server marked X-Flexile-Degraded: counted,
	// never compared.
	Degraded
	// Shed is an explicit, labelled refusal.
	Shed
	// Violation is anything else: a silent wrong answer, an unlabelled
	// refusal, an unexplained status.
	Violation
)

func (c Class) String() string {
	return [...]string{"exact", "degraded", "shed", "violation"}[c]
}

// Contract is the daemon's serving contract — "an oracle-exact 200 or an
// explicit, labelled shed, never a silent wrong answer" — checked from the
// outside on the outcome of rq's i-th query:
//
//   - an unmarked 200 must equal oracle's bytes for that artifact and
//     failure state (a nil oracle, or one with no answer, compares nothing);
//   - a 200 marked degraded is accepted as such;
//   - a 429 or 503 must name its shed reason and, on the single route,
//     carry Retry-After >= 1;
//   - everything else is a violation, and its error names the request id
//     that finds the server-side trace.
func Contract(oracle Oracle, rq Request, i int, out Outcome) (Class, error) {
	violation := func(format string, args ...any) (Class, error) {
		id := rq.ID
		if id == "" {
			id = out.RequestID
		}
		return Violation, fmt.Errorf("request %s query %d (%s %v): %s",
			id, i, rq.Queries[i].Artifact, rq.Queries[i].Failed, fmt.Sprintf(format, args...))
	}
	switch out.Status {
	case http.StatusOK:
		if out.Degraded {
			return Degraded, nil
		}
		if oracle != nil {
			if want := oracle(rq.Queries[i]); want != nil && !bytes.Equal(out.Body, want) {
				return violation("unmarked 200 differs from oracle")
			}
		}
		return Exact, nil
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		if out.Shed == "" {
			return violation("%d without a shed reason: %.120s", out.Status, out.Body)
		}
		if !out.Batch && out.RetryAfter < 1 {
			return violation("shed %q without usable Retry-After", out.Shed)
		}
		return Shed, nil
	case 0:
		return violation("batch envelope answers no such entry: %.120s", out.Body)
	default:
		return violation("status %d: %.120s", out.Status, out.Body)
	}
}
