package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// maxRequestBody bounds how much of an allocation request body the server
// will read; a failure state for even the largest supported topology fits
// in far less.
const maxRequestBody = 1 << 20

// AllocRequest is a failure-state allocation query: the set of failed
// edges, canonicalized (sorted, deduplicated) by the parsers.
type AllocRequest struct {
	Failed []int `json:"failed"`
}

// ErrBadRequest is wrapped by every request-parse failure.
var ErrBadRequest = errors.New("serve: bad request")

// ParseRequest parses a JSON allocation-request body. Arbitrary bytes
// yield a wrapped ErrBadRequest, never a panic; edge ids are validated
// non-negative and bounded, then sorted and deduplicated.
func ParseRequest(data []byte) (*AllocRequest, error) {
	var req AllocRequest
	if err := decodeStrict(data, maxRequestBody, "body", "request", &req); err != nil {
		return nil, err
	}
	var err error
	if req.Failed, err = canonicalize(req.Failed); err != nil {
		return nil, err
	}
	return &req, nil
}

// decodeStrict decodes data — at most limit bytes, exactly one JSON object,
// no unknown fields — into v; body and object name the two in errors.
func decodeStrict(data []byte, limit int, body, object string, v any) error {
	if len(data) > limit {
		return fmt.Errorf("%w: %s of %d bytes exceeds %d", ErrBadRequest, body, len(data), limit)
	}
	d := json.NewDecoder(bytes.NewReader(data))
	d.DisallowUnknownFields()
	if err := d.Decode(v); err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if d.More() {
		return fmt.Errorf("%w: trailing data after %s object", ErrBadRequest, object)
	}
	return nil
}

// ParseQuery parses the GET form of an allocation query: a "failed"
// parameter holding a comma-separated edge list ("" or absent means no
// failures). Same guarantees as ParseRequest.
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

// readRequest parses the query a request carries: POST body or GET param.
func readRequest(r *http.Request) (*AllocRequest, error) {
	if r.Method != http.MethodPost {
		return ParseQuery(r.URL.Query().Get("failed"))
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxRequestBody+1))
	if err != nil {
		return nil, fmt.Errorf("reading body: %w", err)
	}
	return ParseRequest(body)
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
