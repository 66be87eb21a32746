package metrics

import (
	"cmp"
	"io"
	"slices"
	"strconv"
	"strings"
)

// Prometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): one `# TYPE` line per family followed by its
// samples, families and series in name order. Registry names built with
// Label are split back into family + label set, so
// `eval_total{strategy="compiled"}` and `eval_total{strategy="matching"}`
// share one family. Histograms are exposed with a `_seconds` unit suffix
// as cumulative `_bucket` series (le in seconds) plus `_sum` and
// `_count`; a func is a gauge.
func (r *Registry) Prometheus() string {
	type series struct {
		fam, labels string
		inst        any
	}
	var ss []series
	for n, v := range r.entries() {
		fam, labels := splitSeries(n)
		if _, ok := v.(*Histogram); ok {
			fam += "_seconds"
		}
		ss = append(ss, series{fam, labels, v})
	}
	slices.SortFunc(ss, func(a, b series) int {
		return cmp.Or(cmp.Compare(a.fam, b.fam), cmp.Compare(a.labels, b.labels))
	})

	var b strings.Builder
	famType := ""
	for i, s := range ss {
		if i == 0 || s.fam != ss[i-1].fam {
			famType = promType(s.inst)
			b.WriteString("# TYPE " + s.fam + " " + famType + "\n")
		} else if promType(s.inst) != famType {
			// A labeled series whose kind conflicts with its family would
			// make the exposition invalid; never emit it.
			continue
		}
		switch x := s.inst.(type) {
		case *Counter:
			writeSample(&b, s.fam, s.labels, strconv.FormatUint(x.Value(), 10))
		case *Gauge:
			writeSample(&b, s.fam, s.labels, strconv.FormatInt(x.Value(), 10))
		case func() float64:
			writeSample(&b, s.fam, s.labels, strconv.FormatFloat(x(), 'g', -1, 64))
		case *Histogram:
			buckets, count, sum := x.snapshot()
			var cum uint64
			for i, c := range buckets {
				cum += c
				le := "+Inf"
				if i < len(latencyBuckets) {
					le = strconv.FormatFloat(latencyBuckets[i].Seconds(), 'g', -1, 64)
				}
				writeSample(&b, s.fam+"_bucket", joinLabels(s.labels, `le="`+le+`"`), strconv.FormatUint(cum, 10))
			}
			writeSample(&b, s.fam+"_sum", s.labels, strconv.FormatFloat(sum.Seconds(), 'g', -1, 64))
			writeSample(&b, s.fam+"_count", s.labels, strconv.FormatUint(count, 10))
		}
	}
	return b.String()
}

// WritePrometheus writes the Prometheus exposition to w.
func (r *Registry) WritePrometheus(w io.Writer) error {
	_, err := io.WriteString(w, r.Prometheus())
	return err
}

// promType names an instrument's Prometheus family type.
func promType(inst any) string {
	switch inst.(type) {
	case *Counter:
		return "counter"
	case *Histogram:
		return "histogram"
	default: // *Gauge and func() float64
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
