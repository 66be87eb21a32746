package metrics

import (
	"io"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Prometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): one `# TYPE` line per family followed by its
// samples. Registry names built with Label are split back into family +
// label set, so `eval_total{strategy="compiled"}` and
// `eval_total{strategy="matching"}` share one family. Histograms are
// exposed with a `_seconds` unit suffix as cumulative `_bucket` series
// (le in seconds) plus `_sum` and `_count`. Callback metrics (SetFunc)
// are exposed as gauges when they return a number and omitted otherwise
// (maps and strings only appear in /debug/vars).
func (r *Registry) Prometheus() string {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	r.mu.Unlock()

	type series struct {
		labels string
		kind   byte
		c      *Counter
		g      *Gauge
		h      *Histogram
		f      func() any
	}
	fams := make(map[string][]series)
	for _, n := range names {
		r.mu.Lock()
		k := r.kind[n]
		c, g, h, f := r.ctrs[n], r.gauges[n], r.hists[n], r.extra[n]
		r.mu.Unlock()
		base, labels := splitSeries(n)
		if k == 'h' {
			base += "_seconds"
		}
		fams[base] = append(fams[base], series{labels: labels, kind: k, c: c, g: g, h: h, f: f})
	}
	famOrder := make([]string, 0, len(fams))
	for fam := range fams {
		famOrder = append(famOrder, fam)
	}
	sort.Strings(famOrder)

	var b strings.Builder
	for _, fam := range famOrder {
		ss := fams[fam]
		famType := promKind(ss[0].kind)
		b.WriteString("# TYPE ")
		b.WriteString(fam)
		b.WriteByte(' ')
		b.WriteString(famType)
		b.WriteByte('\n')
		for _, s := range ss {
			if promKind(s.kind) != famType {
				// A labeled series whose kind conflicts with its family
				// would make the exposition invalid; registration should
				// have prevented this, but never emit it.
				continue
			}
			switch s.kind {
			case 'c':
				writeSample(&b, fam, s.labels, strconv.FormatUint(s.c.Value(), 10))
			case 'g':
				writeSample(&b, fam, s.labels, strconv.FormatInt(s.g.Value(), 10))
			case 'f':
				if v, ok := toFloat(s.f()); ok {
					writeSample(&b, fam, s.labels, strconv.FormatFloat(v, 'g', -1, 64))
				}
			case 'h':
				snap := s.h.Snapshot()
				var cum uint64
				for _, bk := range snap.Buckets {
					cum += bk.Count
					le := "+Inf"
					if bk.UpperBound != 0 {
						le = formatSeconds(bk.UpperBound)
					}
					writeSample(&b, fam+"_bucket", joinLabels(s.labels, `le="`+le+`"`), strconv.FormatUint(cum, 10))
				}
				writeSample(&b, fam+"_sum", s.labels, strconv.FormatFloat(snap.Sum.Seconds(), 'g', -1, 64))
				writeSample(&b, fam+"_count", s.labels, strconv.FormatUint(snap.Count, 10))
			}
		}
	}
	return b.String()
}

// WritePrometheus writes the Prometheus exposition to w.
func (r *Registry) WritePrometheus(w io.Writer) error {
	_, err := io.WriteString(w, r.Prometheus())
	return err
}

// promKind maps a registry kind byte to the Prometheus family type.
func promKind(k byte) string {
	switch k {
	case 'c':
		return "counter"
	case 'h':
		return "histogram"
	default: // 'g' and numeric 'f' callbacks
		return "gauge"
	}
}

func writeSample(b *strings.Builder, name, labels, value string) {
	b.WriteString(name)
	if labels != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

// formatSeconds renders a duration bound as a seconds float the way
// Prometheus le labels expect.
func formatSeconds(d time.Duration) string {
	return strconv.FormatFloat(d.Seconds(), 'g', -1, 64)
}

// toFloat converts the numeric types SetFunc callbacks return.
func toFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case float32:
		return float64(x), true
	case int:
		return float64(x), true
	case int32:
		return float64(x), true
	case int64:
		return float64(x), true
	case uint:
		return float64(x), true
	case uint32:
		return float64(x), true
	case uint64:
		return float64(x), true
	default:
		return 0, false
	}
}
