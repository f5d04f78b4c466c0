package serve

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// AllocRequest is a failure-state allocation query: the set of failed
// edges, canonicalized (sorted, deduplicated) by the parsers.
type AllocRequest struct {
	Failed []int
}

// ErrBadRequest is wrapped by every request-parse failure.
var ErrBadRequest = errors.New("serve: bad request")

// ParseQuery parses the GET form of an allocation query: a "failed"
// parameter holding a comma-separated edge list ("" or absent means no
// failures). Arbitrary input yields a wrapped ErrBadRequest, never a
// panic; edge ids are validated non-negative and bounded, then sorted and
// deduplicated.
func ParseQuery(failed string) (*AllocRequest, error) {
	req := &AllocRequest{}
	if failed != "" {
		for _, part := range strings.Split(failed, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return nil, fmt.Errorf("%w: failed edge %q: %v", ErrBadRequest, part, err)
			}
			req.Failed = append(req.Failed, v)
		}
	}
	var err error
	if req.Failed, err = canonicalize(req.Failed); err != nil {
		return nil, err
	}
	return req, nil
}

func canonicalize(failed []int) ([]int, error) {
	if len(failed) > maxEdges {
		return nil, fmt.Errorf("%w: %d failed edges exceeds %d", ErrBadRequest, len(failed), maxEdges)
	}
	for _, e := range failed {
		if e < 0 || e >= maxEdges {
			return nil, fmt.Errorf("%w: edge id %d out of range", ErrBadRequest, e)
		}
	}
	sort.Ints(failed)
	out := failed[:0]
	for i, e := range failed {
		if i == 0 || e != failed[i-1] {
			out = append(out, e)
		}
	}
	return out, nil
}

// failedKey canonicalizes a sorted failed-edge list into a map key.
func failedKey(failed []int) string {
	b := make([]byte, 0, 4*len(failed))
	for i, e := range failed {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(e), 10)
	}
	return string(b)
}
