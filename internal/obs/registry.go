// Package obs is the observability layer shared by the policy service,
// the transfer tool and the workflow executor: a concurrency-safe metrics
// registry (counters, gauges and bounded-bucket histograms with labeled
// series, rendered in the Prometheus text exposition format) and a
// structured JSONL event tracer that records the lifecycle of every
// transfer the policy service sees. It is stdlib-only by design — the
// reproduction must not grow external dependencies — and every hot-path
// operation takes a single short mutex hold so instrumented code stays
// cheap under the concurrent workloads of the scalability experiments.
package obs

import (
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Kind identifies a metric family's type.
type Kind int

const (
	// KindCounter is a monotonically increasing value.
	KindCounter Kind = iota
	// KindGauge is a value that can go up and down.
	KindGauge
	// KindHistogram is a bounded-bucket distribution.
	KindHistogram
)

// String returns the Prometheus TYPE keyword for the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// nameRe is the Prometheus metric/label name grammar.
var nameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// Registry holds metric families and renders them for scraping. It is safe
// for concurrent use; the zero value is not usable, call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// family is one named metric with a fixed label schema and many series.
type family struct {
	name    string
	help    string
	kind    Kind
	labels  []string
	buckets []float64 // histogram families only

	mu     sync.Mutex
	series map[string]*series
	keys   []string
}

// series is one labeled sample (or histogram) within a family.
type series struct {
	labelValues []string

	mu    sync.Mutex
	value float64  // counter/gauge
	sum   float64  // histogram
	count uint64   // histogram
	cells []uint64 // histogram; len(buckets)+1, last is +Inf
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) family(name, help string, kind Kind, buckets []float64, labels []string) *family {
	if !nameRe.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !nameRe.MatchString(l) {
			panic(fmt.Sprintf("obs: invalid label name %q in metric %s", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %s re-registered with a different schema", name))
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic(fmt.Sprintf("obs: metric %s re-registered with a different schema", name))
			}
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind,
		labels: append([]string(nil), labels...),
		series: make(map[string]*series),
	}
	if kind == KindHistogram {
		if len(buckets) == 0 {
			buckets = DefBuckets
		}
		for i := 1; i < len(buckets); i++ {
			if buckets[i] <= buckets[i-1] {
				panic(fmt.Sprintf("obs: metric %s buckets are not strictly increasing", name))
			}
		}
		f.buckets = append([]float64(nil), buckets...)
	}
	r.families[name] = f
	r.order = append(r.order, name)
	return f
}

func (f *family) get(labelValues []string) *series {
	if len(labelValues) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label value(s), got %d",
			f.name, len(f.labels), len(labelValues)))
	}
	key := strings.Join(labelValues, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = &series{labelValues: append([]string(nil), labelValues...)}
		if f.kind == KindHistogram {
			s.cells = make([]uint64, len(f.buckets)+1)
		}
		f.series[key] = s
		f.keys = append(f.keys, key)
		sort.Strings(f.keys)
	}
	return s
}

// CounterVec is a family of counters distinguished by label values.
type CounterVec struct{ f *family }

// Counter registers (or retrieves) a counter family. Families without
// labels materialize their single series immediately so a zero sample is
// always exposed.
func (r *Registry) Counter(name, help string, labels ...string) *CounterVec {
	v := &CounterVec{f: r.family(name, help, KindCounter, nil, labels)}
	if len(labels) == 0 {
		v.f.get(nil)
	}
	return v
}

// With returns the counter for the given label values, creating it at zero
// on first use.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return &Counter{s: v.f.get(labelValues)}
}

// Counter is one monotonically increasing series.
type Counter struct{ s *series }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter; negative deltas are ignored (counters are
// monotonic).
func (c *Counter) Add(delta float64) {
	if delta < 0 {
		return
	}
	c.s.mu.Lock()
	c.s.value += delta
	c.s.mu.Unlock()
}

// Value returns the current count.
func (c *Counter) Value() float64 {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	return c.s.value
}

// GaugeVec is a family of gauges distinguished by label values.
type GaugeVec struct{ f *family }

// Gauge registers (or retrieves) a gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) *GaugeVec {
	v := &GaugeVec{f: r.family(name, help, KindGauge, nil, labels)}
	if len(labels) == 0 {
		v.f.get(nil)
	}
	return v
}

// With returns the gauge for the given label values.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return &Gauge{s: v.f.get(labelValues)}
}

// Gauge is one series whose value moves both ways.
type Gauge struct{ s *series }

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	g.s.mu.Lock()
	g.s.value = v
	g.s.mu.Unlock()
}

// Add shifts the value by delta (negative to decrease).
func (g *Gauge) Add(delta float64) {
	g.s.mu.Lock()
	g.s.value += delta
	g.s.mu.Unlock()
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	g.s.mu.Lock()
	defer g.s.mu.Unlock()
	return g.s.value
}

// DefBuckets are latency buckets in seconds, matching the Prometheus
// client defaults — appropriate for rule-evaluation and HTTP handler
// times.
var DefBuckets = []float64{.001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// ExpBuckets returns n strictly increasing buckets starting at start and
// multiplying by factor — for transfer sizes and durations that span
// orders of magnitude.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets wants start > 0, factor > 1, n >= 1")
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = start
		start *= factor
	}
	return b
}

// HistogramVec is a family of histograms distinguished by label values.
type HistogramVec struct{ f *family }

// Histogram registers (or retrieves) a histogram family with the given
// bucket upper bounds (nil selects DefBuckets). Bounds must be strictly
// increasing; a +Inf bucket is implicit.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *HistogramVec {
	v := &HistogramVec{f: r.family(name, help, KindHistogram, buckets, labels)}
	if len(labels) == 0 {
		v.f.get(nil)
	}
	return v
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return &Histogram{s: v.f.get(labelValues), buckets: v.f.buckets}
}

// Histogram is one bounded-bucket distribution series.
type Histogram struct {
	s       *series
	buckets []float64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	idx := sort.SearchFloat64s(h.buckets, v) // first bound >= v
	h.s.mu.Lock()
	h.s.cells[idx]++
	h.s.count++
	h.s.sum += v
	h.s.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.s.mu.Lock()
	defer h.s.mu.Unlock()
	return h.s.count
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	h.s.mu.Lock()
	defer h.s.mu.Unlock()
	return h.s.sum
}

// escapeLabel escapes a label value per the text exposition format.
var escapeLabel = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelString renders {k1="v1",k2="v2"}; empty schemas render nothing.
func labelString(names, values []string, extra ...string) string {
	if len(names) == 0 && len(extra) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, n, escapeLabel.Replace(values[i]))
	}
	for i := 0; i+1 < len(extra); i += 2 {
		if len(names) > 0 || i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, extra[i], escapeLabel.Replace(extra[i+1]))
	}
	b.WriteByte('}')
	return b.String()
}

// WritePrometheus renders every family in registration order in the
// Prometheus text exposition format (version 0.0.4): each family's samples
// are preceded by its # HELP and # TYPE lines, histogram series expand to
// cumulative _bucket samples plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	order := append([]string(nil), r.order...)
	fams := make([]*family, 0, len(order))
	for _, name := range order {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	for _, f := range fams {
		f.mu.Lock()
		keys := append([]string(nil), f.keys...)
		sers := make([]*series, 0, len(keys))
		for _, k := range keys {
			sers = append(sers, f.series[k])
		}
		f.mu.Unlock()

		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			f.name, f.help, f.name, f.kind); err != nil {
			return err
		}
		for _, s := range sers {
			if err := f.writeSeries(w, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func (f *family) writeSeries(w io.Writer, s *series) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch f.kind {
	case KindHistogram:
		var cum uint64
		for i, bound := range f.buckets {
			cum += s.cells[i]
			le := formatValue(bound)
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
				f.name, labelString(f.labels, s.labelValues, "le", le), cum); err != nil {
				return err
			}
		}
		cum += s.cells[len(f.buckets)]
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			f.name, labelString(f.labels, s.labelValues, "le", "+Inf"), cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n",
			f.name, labelString(f.labels, s.labelValues), formatValue(s.sum)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n",
			f.name, labelString(f.labels, s.labelValues), s.count)
		return err
	default:
		_, err := fmt.Fprintf(w, "%s%s %s\n",
			f.name, labelString(f.labels, s.labelValues), formatValue(s.value))
		return err
	}
}

// Sample is one rendered series in a Snapshot.
type Sample struct {
	// Labels maps label names to values; nil for unlabeled series.
	Labels map[string]string `json:"labels,omitempty"`
	// Value is the counter/gauge value, or the histogram sum.
	Value float64 `json:"value"`
	// Count is the number of observed values (histograms only).
	Count uint64 `json:"count,omitempty"`
}

// FamilySnapshot is the point-in-time state of one metric family.
type FamilySnapshot struct {
	Name    string   `json:"name"`
	Help    string   `json:"help"`
	Kind    string   `json:"kind"`
	Samples []Sample `json:"samples"`
}

// Snapshot returns the registry contents in registration order — the
// expvar-style JSON form served on /debug/vars and consumed by tests.
func (r *Registry) Snapshot() []FamilySnapshot {
	r.mu.Lock()
	order := append([]string(nil), r.order...)
	fams := make([]*family, 0, len(order))
	for _, name := range order {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	out := make([]FamilySnapshot, 0, len(fams))
	for _, f := range fams {
		f.mu.Lock()
		keys := append([]string(nil), f.keys...)
		sers := make([]*series, 0, len(keys))
		for _, k := range keys {
			sers = append(sers, f.series[k])
		}
		f.mu.Unlock()
		fs := FamilySnapshot{Name: f.name, Help: f.help, Kind: f.kind.String()}
		for _, s := range sers {
			s.mu.Lock()
			smp := Sample{}
			if len(f.labels) > 0 {
				smp.Labels = make(map[string]string, len(f.labels))
				for i, n := range f.labels {
					smp.Labels[n] = s.labelValues[i]
				}
			}
			if f.kind == KindHistogram {
				smp.Value = s.sum
				smp.Count = s.count
			} else {
				smp.Value = s.value
			}
			s.mu.Unlock()
			fs.Samples = append(fs.Samples, smp)
		}
		out = append(out, fs)
	}
	return out
}
