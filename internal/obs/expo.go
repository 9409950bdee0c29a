package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WriteProm renders the registry in Prometheus text exposition format
// 0.0.4: one # HELP / # TYPE header per family, histogram children as
// cumulative _bucket{le=...} series plus _sum and _count. Families and
// label sets are emitted in sorted order so successive scrapes diff
// cleanly.
func (r *Registry) WriteProm(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	fams := make(map[string]*family, len(r.fams))
	for name, f := range r.fams {
		names = append(names, name)
		fams[name] = f
	}
	r.mu.Unlock()
	sort.Strings(names)

	var b strings.Builder
	for _, name := range names {
		f := fams[name]
		b.Reset()
		f.writeProm(&b)
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) writeProm(b *strings.Builder) {
	if f.help != "" {
		fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	}
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)

	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.single != nil {
		f.writePromChild(b, f.single, nil)
		return
	}
	for _, key := range f.sortedKeys() {
		f.writePromChild(b, f.children[key], f.labels[key])
	}
}

func (f *family) writePromChild(b *strings.Builder, child any, values []string) {
	switch m := child.(type) {
	case *Counter:
		b.WriteString(f.name)
		writeLabels(b, f.labelNames, values, "", "")
		fmt.Fprintf(b, " %d\n", m.Value())
	case *Gauge:
		b.WriteString(f.name)
		writeLabels(b, f.labelNames, values, "", "")
		fmt.Fprintf(b, " %d\n", m.Value())
	case *Histogram:
		counts, count, sum := m.snapshot()
		var cum uint64
		for i, n := range counts {
			cum += n
			le := "+Inf"
			if i < len(m.bounds) {
				le = formatFloat(m.bounds[i])
			}
			b.WriteString(f.name)
			b.WriteString("_bucket")
			writeLabels(b, f.labelNames, values, "le", le)
			fmt.Fprintf(b, " %d\n", cum)
		}
		b.WriteString(f.name)
		b.WriteString("_sum")
		writeLabels(b, f.labelNames, values, "", "")
		fmt.Fprintf(b, " %s\n", formatFloat(sum))
		b.WriteString(f.name)
		b.WriteString("_count")
		writeLabels(b, f.labelNames, values, "", "")
		fmt.Fprintf(b, " %d\n", count)
	}
}

// writeLabels appends {k="v",...}, including the optional extra pair
// (used for le). Nothing is written when there are no labels at all.
func writeLabels(b *strings.Builder, names, values []string, extraName, extraValue string) {
	if len(names) == 0 && extraName == "" {
		return
	}
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(extraValue)
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(s string) string { return labelEscaper.Replace(s) }

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeHelp(s string) string { return helpEscaper.Replace(s) }

// formatFloat renders a float the way Prometheus expects: shortest
// round-trip representation, integers without a trailing ".0".
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Snapshot is the JSON form of a registry: every family with its
// current samples. Histograms carry count/sum and interpolated
// p50/p95/p99 rather than raw buckets, so the document stays compact
// and trivially marshalable (no +Inf keys).
type Snapshot struct {
	Metrics []MetricSnapshot `json:"metrics"`
}

// MetricSnapshot is one family in a Snapshot.
type MetricSnapshot struct {
	Name    string           `json:"name"`
	Kind    Kind             `json:"kind"`
	Help    string           `json:"help,omitempty"`
	Samples []SampleSnapshot `json:"samples"`
}

// SampleSnapshot is one child (label combination) of a family. Value
// holds counter/gauge readings; Count/Sum/P50/P95/P99 hold histogram
// readings.
type SampleSnapshot struct {
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value,omitempty"`
	Count  uint64            `json:"count,omitempty"`
	Sum    float64           `json:"sum,omitempty"`
	P50    float64           `json:"p50,omitempty"`
	P95    float64           `json:"p95,omitempty"`
	P99    float64           `json:"p99,omitempty"`
}

// Snapshot captures the registry's current values.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	fams := make(map[string]*family, len(r.fams))
	for name, f := range r.fams {
		names = append(names, name)
		fams[name] = f
	}
	r.mu.Unlock()
	sort.Strings(names)

	snap := Snapshot{Metrics: make([]MetricSnapshot, 0, len(names))}
	for _, name := range names {
		f := fams[name]
		ms := MetricSnapshot{Name: f.name, Kind: f.kind, Help: f.help}
		f.mu.RLock()
		if f.single != nil {
			ms.Samples = append(ms.Samples, sampleOf(f.single, nil, nil))
		} else {
			for _, key := range f.sortedKeys() {
				ms.Samples = append(ms.Samples, sampleOf(f.children[key], f.labelNames, f.labels[key]))
			}
		}
		f.mu.RUnlock()
		snap.Metrics = append(snap.Metrics, ms)
	}
	return snap
}

func sampleOf(child any, labelNames, values []string) SampleSnapshot {
	s := SampleSnapshot{}
	if len(labelNames) > 0 {
		s.Labels = make(map[string]string, len(labelNames))
		for i, n := range labelNames {
			s.Labels[n] = values[i]
		}
	}
	switch m := child.(type) {
	case *Counter:
		s.Value = float64(m.Value())
	case *Gauge:
		s.Value = float64(m.Value())
	case *Histogram:
		s.Count = m.Count()
		s.Sum = m.Sum()
		s.P50 = m.Quantile(0.50)
		s.P95 = m.Quantile(0.95)
		s.P99 = m.Quantile(0.99)
	}
	return s
}

// Flatten collapses a snapshot to "name{k=v,...}" → value, histograms
// contributing name_count and name_sum entries. This is the shape
// bench diffs to compute the per-layer deltas of a run.
func (s Snapshot) Flatten() map[string]float64 {
	out := make(map[string]float64)
	for _, m := range s.Metrics {
		for _, smp := range m.Samples {
			key := m.Name + flatLabels(smp.Labels)
			switch m.Kind {
			case KindHistogram:
				out[key+"_count"] = float64(smp.Count)
				out[key+"_sum"] = smp.Sum
			default:
				out[key] = smp.Value
			}
		}
	}
	return out
}

func flatLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(labels[k])
	}
	b.WriteByte('}')
	return b.String()
}
