package expo

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Lint validates a rendered exposition page against the subset of the
// Prometheus text-format grammar this package emits, line by line:
//
//   - comment lines are `# HELP <name> <docstring>` or `# TYPE <name>
//     <counter|gauge|histogram|summary|untyped>`, with TYPE emitted at most
//     once per family and before any of its samples;
//   - sample lines are `name{label="value",...} value`, with metric names
//     matching [a-zA-Z_:][a-zA-Z0-9_:]*, label names matching
//     [a-zA-Z_][a-zA-Z0-9_]*, label values escaping `\`, `"` and newline,
//     and values parsing as Go floats or the spellings +Inf/-Inf/NaN;
//   - no two samples share a name and label set;
//   - every histogram family's `le` values are valid floats in strictly
//     increasing order with monotone non-decreasing cumulative counts,
//     the last bucket is le="+Inf", and `_count` equals that +Inf bucket
//     (the epoch-consistency invariant), with `_sum` present.
//
// The first violation is returned with its line number; nil means the page
// conforms.
func Lint(page []byte) error {
	type histState struct {
		lastLe     float64
		lastCum    float64
		sawInf     bool
		infCount   float64
		count      float64
		sawCount   bool
		sawSum     bool
		sawBucket  bool
		bucketLine int
	}
	typed := make(map[string]string)
	hists := make(map[string]*histState) // keyed by family + non-le labels
	histFamilies := make(map[string][]string)
	samplesSeen := make(map[string]int)

	sc := bufio.NewScanner(bytes.NewReader(page))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := lintComment(line, typed); err != nil {
				return fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		name, labels, value, err := parseSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		key := name + "\x00" + canonicalLabels(labels)
		if prev, dup := samplesSeen[key]; dup {
			return fmt.Errorf("line %d: duplicate sample %s (first at line %d)", lineNo, name, prev)
		}
		samplesSeen[key] = lineNo

		family, suffix := histFamilyOf(name, typed)
		if family == "" {
			continue
		}
		rest := make([]Label, 0, len(labels))
		var le string
		sawLe := false
		for _, l := range labels {
			if l.Name == "le" {
				le, sawLe = l.Value, true
				continue
			}
			rest = append(rest, l)
		}
		hkey := family + "\x00" + canonicalLabels(rest)
		st := hists[hkey]
		if st == nil {
			st = &histState{lastLe: math.Inf(-1)}
			hists[hkey] = st
			histFamilies[family] = append(histFamilies[family], hkey)
		}
		switch suffix {
		case "_bucket":
			if !sawLe {
				return fmt.Errorf("line %d: %s without le label", lineNo, name)
			}
			st.sawBucket = true
			st.bucketLine = lineNo
			if st.sawInf {
				return fmt.Errorf("line %d: %s bucket after le=\"+Inf\"", lineNo, name)
			}
			if le == "+Inf" {
				st.sawInf = true
				st.infCount = value
			} else {
				f, err := strconv.ParseFloat(le, 64)
				if err != nil {
					return fmt.Errorf("line %d: %s le=%q is not a float: %v", lineNo, name, le, err)
				}
				if f <= st.lastLe {
					return fmt.Errorf("line %d: %s le=%q not strictly increasing (previous %v)", lineNo, name, le, st.lastLe)
				}
				st.lastLe = f
			}
			if value < st.lastCum {
				return fmt.Errorf("line %d: %s cumulative count decreased: %v after %v", lineNo, name, value, st.lastCum)
			}
			st.lastCum = value
		case "_sum":
			st.sawSum = true
		case "_count":
			st.sawCount = true
			st.count = value
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	for family, keys := range histFamilies {
		for _, hkey := range keys {
			st := hists[hkey]
			if !st.sawBucket {
				return fmt.Errorf("histogram %s has no buckets", family)
			}
			if !st.sawInf {
				return fmt.Errorf("histogram %s (ending line %d) is missing the le=\"+Inf\" bucket", family, st.bucketLine)
			}
			if !st.sawSum {
				return fmt.Errorf("histogram %s is missing _sum", family)
			}
			if !st.sawCount {
				return fmt.Errorf("histogram %s is missing _count", family)
			}
			if st.count != st.infCount {
				return fmt.Errorf("histogram %s: _count %v != +Inf bucket %v (torn snapshot)", family, st.count, st.infCount)
			}
		}
	}
	return nil
}

// lintComment validates a # HELP or # TYPE line. Other comments pass.
func lintComment(line string, typed map[string]string) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 2 {
		return nil // bare comment
	}
	switch fields[1] {
	case "HELP":
		if len(fields) < 3 || !validName(fields[2]) {
			return fmt.Errorf("malformed HELP line %q", line)
		}
	case "TYPE":
		if len(fields) < 4 || !validName(fields[2]) {
			return fmt.Errorf("malformed TYPE line %q", line)
		}
		switch fields[3] {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q", fields[3])
		}
		if _, dup := typed[fields[2]]; dup {
			return fmt.Errorf("family %s typed twice", fields[2])
		}
		typed[fields[2]] = fields[3]
	}
	return nil
}

// parseSample parses `name{label="value",...} value` into its parts,
// validating every charset and escape sequence on the way.
func parseSample(line string) (name string, labels []Label, value float64, err error) {
	i := 0
	for i < len(line) && identByte(line[i], i == 0, true) {
		i++
	}
	name = line[:i]
	if !validName(name) {
		return "", nil, 0, fmt.Errorf("invalid metric name at %q", line)
	}
	if i < len(line) && line[i] == '{' {
		i++
		for {
			if i >= len(line) {
				return "", nil, 0, fmt.Errorf("unterminated label set in %q", line)
			}
			if line[i] == '}' {
				i++
				break
			}
			start := i
			for i < len(line) && identByte(line[i], i == start, false) {
				i++
			}
			lname := line[start:i]
			if !validLabelName(lname) {
				return "", nil, 0, fmt.Errorf("invalid label name at %q", line[start:])
			}
			if i >= len(line) || line[i] != '=' {
				return "", nil, 0, fmt.Errorf("missing = after label %s", lname)
			}
			i++
			lval, n, verr := parseLabelValue(line[i:])
			if verr != nil {
				return "", nil, 0, fmt.Errorf("label %s: %w", lname, verr)
			}
			i += n
			labels = append(labels, Label{lname, lval})
			if i < len(line) && line[i] == ',' {
				i++
			}
		}
	}
	rest := strings.TrimLeft(line[i:], " \t")
	valStr, _, _ := strings.Cut(rest, " ") // an optional timestamp may follow
	value, err = parseValue(valStr)
	if err != nil {
		return "", nil, 0, fmt.Errorf("sample %s: %w", name, err)
	}
	return name, labels, value, nil
}

// parseLabelValue consumes a double-quoted, escaped label value and returns
// the decoded value plus the number of input bytes consumed.
func parseLabelValue(s string) (string, int, error) {
	if len(s) == 0 || s[0] != '"' {
		return "", 0, fmt.Errorf("label value must be double-quoted, got %q", s)
	}
	var b strings.Builder
	i := 1
	for i < len(s) {
		switch s[i] {
		case '"':
			return b.String(), i + 1, nil
		case '\\':
			if i+1 >= len(s) {
				return "", 0, fmt.Errorf("dangling backslash in label value")
			}
			switch s[i+1] {
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'n':
				b.WriteByte('\n')
			default:
				return "", 0, fmt.Errorf("invalid escape \\%c in label value", s[i+1])
			}
			i += 2
		case '\n':
			return "", 0, fmt.Errorf("raw newline in label value")
		default:
			b.WriteByte(s[i])
			i++
		}
	}
	return "", 0, fmt.Errorf("unterminated label value")
}

// parseValue parses a sample value: a Go float or +Inf/-Inf/NaN.
func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN", "nan":
		return math.NaN(), nil
	case "":
		return 0, fmt.Errorf("missing value")
	}
	return strconv.ParseFloat(s, 64)
}

// histFamilyOf maps a sample name to its histogram family and suffix when
// the family is TYPEd histogram; empty otherwise.
func histFamilyOf(name string, typed map[string]string) (family, suffix string) {
	for _, s := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, s) {
			fam := strings.TrimSuffix(name, s)
			if typed[fam] == "histogram" {
				return fam, s
			}
		}
	}
	return "", ""
}

// canonicalLabels renders a label set order-insensitively for dedup keys.
func canonicalLabels(labels []Label) string {
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = l.Name + "=" + l.Value
	}
	// insertion sort: label sets are tiny.
	for i := 1; i < len(parts); i++ {
		for j := i; j > 0 && parts[j] < parts[j-1]; j-- {
			parts[j], parts[j-1] = parts[j-1], parts[j]
		}
	}
	return strings.Join(parts, "\x01")
}
