package metrics

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file is a small parser and linter for the Prometheus text
// exposition format, used by the server and chaos tests to assert that
// what /metrics serves is actually scrapeable — without depending on
// the Prometheus client libraries.

// PromSample is one parsed sample line.
type PromSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// PromExposition is a parsed /metrics payload.
type PromExposition struct {
	// Types maps family name → declared type (counter, gauge, histogram,
	// summary, untyped).
	Types map[string]string
	// Samples in document order.
	Samples []PromSample
}

// Value returns the value of the sample with the given name and exact
// label set (pass alternating key/value pairs), and whether it exists.
func (e *PromExposition) Value(name string, kv ...string) (float64, bool) {
	want := make(map[string]string, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		want[kv[i]] = kv[i+1]
	}
	for _, s := range e.Samples {
		if s.Name != name || len(s.Labels) != len(want) {
			continue
		}
		match := true
		for k, v := range want {
			if s.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return s.Value, true
		}
	}
	return 0, false
}

// Find returns every sample of the given name.
func (e *PromExposition) Find(name string) []PromSample {
	var out []PromSample
	for _, s := range e.Samples {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || strings.ContainsRune(s, ':') {
		return false
	}
	return validMetricName(s)
}

// ParsePrometheus parses a text exposition. Unknown comment lines are
// skipped; malformed sample or TYPE lines are errors.
func ParsePrometheus(text string) (*PromExposition, error) {
	exp := &PromExposition{Types: make(map[string]string)}
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimRight(line, "\r")
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 2 && fields[1] == "TYPE" {
				if len(fields) != 4 {
					return nil, fmt.Errorf("line %d: malformed TYPE line %q", ln+1, line)
				}
				name, typ := fields[2], fields[3]
				if !validMetricName(name) {
					return nil, fmt.Errorf("line %d: invalid family name %q", ln+1, name)
				}
				switch typ {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, fmt.Errorf("line %d: unknown type %q for %q", ln+1, typ, name)
				}
				if _, dup := exp.Types[name]; dup {
					return nil, fmt.Errorf("line %d: duplicate TYPE for %q", ln+1, name)
				}
				exp.Types[name] = typ
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", ln+1, err)
		}
		exp.Samples = append(exp.Samples, s)
	}
	return exp, nil
}

func parseSample(line string) (PromSample, error) {
	s := PromSample{Labels: map[string]string{}}
	rest := line
	i := strings.IndexAny(rest, "{ ")
	if i < 0 {
		return s, fmt.Errorf("no value in %q", line)
	}
	s.Name = rest[:i]
	if !validMetricName(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	if rest[i] == '{' {
		rest = rest[i+1:]
		for {
			rest = strings.TrimLeft(rest, " ")
			if strings.HasPrefix(rest, "}") {
				rest = rest[1:]
				break
			}
			eq := strings.IndexByte(rest, '=')
			if eq < 0 {
				return s, fmt.Errorf("malformed labels in %q", line)
			}
			key := strings.TrimSpace(rest[:eq])
			if !validLabelName(key) {
				return s, fmt.Errorf("invalid label name %q", key)
			}
			rest = rest[eq+1:]
			if !strings.HasPrefix(rest, `"`) {
				return s, fmt.Errorf("unquoted label value in %q", line)
			}
			rest = rest[1:]
			var val strings.Builder
			for {
				if rest == "" {
					return s, fmt.Errorf("unterminated label value in %q", line)
				}
				c := rest[0]
				if c == '\\' {
					if len(rest) < 2 {
						return s, fmt.Errorf("dangling escape in %q", line)
					}
					switch rest[1] {
					case '\\':
						val.WriteByte('\\')
					case '"':
						val.WriteByte('"')
					case 'n':
						val.WriteByte('\n')
					default:
						return s, fmt.Errorf("bad escape \\%c in %q", rest[1], line)
					}
					rest = rest[2:]
					continue
				}
				if c == '"' {
					rest = rest[1:]
					break
				}
				val.WriteByte(c)
				rest = rest[1:]
			}
			if _, dup := s.Labels[key]; dup {
				return s, fmt.Errorf("duplicate label %q in %q", key, line)
			}
			s.Labels[key] = val.String()
			rest = strings.TrimLeft(rest, " ")
			if strings.HasPrefix(rest, ",") {
				rest = rest[1:]
			}
		}
	} else {
		rest = rest[i:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return s, fmt.Errorf("expected value [timestamp] after %q in %q", s.Name, line)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("bad value %q in %q", fields[0], line)
	}
	s.Value = v
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return s, fmt.Errorf("bad timestamp %q in %q", fields[1], line)
		}
	}
	return s, nil
}

// family maps a sample name to the family it belongs to, folding the
// histogram/summary suffixes onto their base when that base is declared.
func (e *PromExposition) family(name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suf); ok {
			if t := e.Types[base]; t == "histogram" || t == "summary" {
				return base
			}
		}
	}
	return name
}

// labelKey canonicalizes a label set (optionally dropping one label) for
// duplicate detection and bucket grouping.
func labelKey(labels map[string]string, drop string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k == drop {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(labels[k])
		b.WriteByte(';')
	}
	return b.String()
}

// LintPrometheus parses text and checks the structural invariants a real
// scraper relies on: every sample's family carries a TYPE declared
// before its first sample; no duplicate series; histogram buckets are
// cumulative and monotone, end in an le="+Inf" bucket, and agree with
// their _count; _sum is present. Returns nil if the exposition is clean.
func LintPrometheus(text string) error {
	exp, err := ParsePrometheus(text)
	if err != nil {
		return err
	}

	// TYPE-before-samples: re-scan document order.
	declared := make(map[string]bool)
	seen := make(map[string]bool)
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimRight(line, "\r")
		if strings.HasPrefix(line, "#") {
			f := strings.Fields(line)
			if len(f) == 4 && f[1] == "TYPE" {
				if seen[f[2]] {
					return fmt.Errorf("TYPE for %q after its samples", f[2])
				}
				declared[f[2]] = true
			}
			continue
		}
		if strings.TrimSpace(line) == "" {
			continue
		}
		s, _ := parseSample(line)
		fam := exp.family(s.Name)
		if !declared[fam] {
			return fmt.Errorf("sample %q before TYPE for family %q", s.Name, fam)
		}
		seen[fam] = true
	}

	dup := make(map[string]bool)
	for _, s := range exp.Samples {
		key := s.Name + "|" + labelKey(s.Labels, "")
		if dup[key] {
			return fmt.Errorf("duplicate series %s{%s}", s.Name, labelKey(s.Labels, ""))
		}
		dup[key] = true
	}

	for fam, typ := range exp.Types {
		if typ != "histogram" {
			continue
		}
		type group struct {
			les  []float64
			cums []float64
		}
		groups := make(map[string]*group)
		for _, s := range exp.Find(fam + "_bucket") {
			le, ok := s.Labels["le"]
			if !ok {
				return fmt.Errorf("%s_bucket sample without le label", fam)
			}
			lef, err := strconv.ParseFloat(le, 64)
			if err != nil {
				return fmt.Errorf("%s_bucket: bad le %q", fam, le)
			}
			k := labelKey(s.Labels, "le")
			g := groups[k]
			if g == nil {
				g = &group{}
				groups[k] = g
			}
			g.les = append(g.les, lef)
			g.cums = append(g.cums, s.Value)
		}
		if len(groups) == 0 {
			return fmt.Errorf("histogram %s has no buckets", fam)
		}
		for k, g := range groups {
			idx := make([]int, len(g.les))
			for i := range idx {
				idx[i] = i
			}
			sort.Slice(idx, func(a, b int) bool { return g.les[idx[a]] < g.les[idx[b]] })
			prev := -1.0
			for _, i := range idx {
				if g.cums[i] < prev {
					return fmt.Errorf("histogram %s{%s}: buckets not cumulative at le=%g", fam, k, g.les[i])
				}
				prev = g.cums[i]
			}
			last := idx[len(idx)-1]
			if !math.IsInf(g.les[last], 1) {
				return fmt.Errorf("histogram %s{%s}: missing le=\"+Inf\" bucket", fam, k)
			}
			count, ok := findWithLabels(exp, fam+"_count", k)
			if !ok {
				return fmt.Errorf("histogram %s{%s}: missing _count", fam, k)
			}
			if count != g.cums[last] {
				return fmt.Errorf("histogram %s{%s}: _count %g != +Inf bucket %g", fam, k, count, g.cums[last])
			}
			if _, ok := findWithLabels(exp, fam+"_sum", k); !ok {
				return fmt.Errorf("histogram %s{%s}: missing _sum", fam, k)
			}
		}
	}
	return nil
}

// findWithLabels returns the sample of name whose canonical label key
// (le excluded) matches key.
func findWithLabels(exp *PromExposition, name, key string) (float64, bool) {
	for _, s := range exp.Find(name) {
		if labelKey(s.Labels, "le") == key {
			return s.Value, true
		}
	}
	return 0, false
}
