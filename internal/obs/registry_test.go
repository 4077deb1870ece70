package obs

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "Requests served.", "op")
	c.With("advise").Add(3)
	c.With("advise").Inc()
	c.With("report").Inc()
	if got := c.With("advise").Value(); got != 4 {
		t.Errorf("advise counter = %v, want 4", got)
	}
	c.With("advise").Add(-5) // ignored: counters are monotonic
	if got := c.With("advise").Value(); got != 4 {
		t.Errorf("advise counter after negative Add = %v, want 4", got)
	}
	inFlight := 7
	r.GaugeFunc("in_flight", "In-flight work.", func(emit Emit) { emit(float64(inFlight)) })
	inFlight -= 2
	if got := r.Snapshot()[1].Samples[0].Value; got != 5 {
		t.Errorf("gauge = %v, want 5", got)
	}
}

func TestRegistryReRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("hits_total", "Hits.", "route")
	b := r.Counter("hits_total", "Hits.", "route")
	a.With("x").Inc()
	b.With("x").Inc()
	if got := a.With("x").Value(); got != 2 {
		t.Errorf("shared family counter = %v, want 2", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("re-registration with different schema did not panic")
		}
	}()
	r.CounterFunc("hits_total", "Hits.", func(Emit) {}, "route")
}

func TestInvalidNamesPanic(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "2bad", "has space", "has-dash"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("metric name %q accepted", bad)
				}
			}()
			r.Counter(bad, "bad")
		}()
	}
}

// TestHistogramBucketBoundaries pins the le semantics: a sample equal to a
// bound lands in that bound's bucket; a sample above every bound lands
// only in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "Latency.", []float64{0.1, 1, 10}).With()
	for _, v := range []float64{0.05, 0.1, 0.5, 1, 10, 11} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`lat_seconds_bucket{le="0.1"} 2`,  // 0.05, 0.1
		`lat_seconds_bucket{le="1"} 4`,    // + 0.5, 1
		`lat_seconds_bucket{le="10"} 5`,   // + 10
		`lat_seconds_bucket{le="+Inf"} 6`, // + 11
		`lat_seconds_sum 22.65`,
		`lat_seconds_count 6`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
}

func TestHistogramBadBucketsPanic(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Error("non-increasing buckets accepted")
		}
	}()
	r.Histogram("h", "h", []float64{1, 1})
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1, 10, 4)
	want := []float64{1, 10, 100, 1000}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", b, want)
		}
	}
}

func TestPrometheusRendering(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("policy_streams_allocated", "Streams per pair.", "src", "dst")
	c.With("a.example.org", "b.example.org").Add(4)
	r.Counter("empty_total", "Never incremented.")
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"# HELP policy_streams_allocated Streams per pair.\n# TYPE policy_streams_allocated counter\n",
		"policy_streams_allocated{src=\"a.example.org\",dst=\"b.example.org\"} 4\n",
		// Unlabeled families expose a zero sample immediately.
		"empty_total 0\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "c", "l").With(`a"b\c` + "\n").Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if want := `c_total{l="a\"b\\c\n"} 1`; !strings.Contains(sb.String(), want) {
		t.Errorf("escaping: got\n%s\nwant fragment %q", sb.String(), want)
	}
}

// TestConcurrentRegistry hammers every metric kind from many goroutines
// while a reader scrapes — under -race this is the registry's
// thread-safety proof required by the acceptance criteria.
func TestConcurrentRegistry(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const iters = 500
	var depth [workers]atomic.Int64
	r.GaugeFunc("depth", "Depth.", func(emit Emit) {
		for w := range depth {
			emit(float64(depth[w].Load()), string(rune('a'+w)))
		}
	}, "worker")
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("ops_total", "Ops.", "worker")
			h := r.Histogram("dur_seconds", "Durations.", nil, "worker")
			label := string(rune('a' + w))
			for i := 0; i < iters; i++ {
				c.With(label).Inc()
				depth[w].Add(1)
				h.With(label).Observe(float64(i%13) / 10)
			}
		}()
	}
	// Concurrent scrapes must not race with writers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			var sb strings.Builder
			if err := r.WritePrometheus(&sb); err != nil {
				t.Error(err)
				return
			}
			r.Snapshot()
		}
	}()
	wg.Wait()

	for w := 0; w < workers; w++ {
		label := string(rune('a' + w))
		if got := r.Counter("ops_total", "Ops.", "worker").With(label).Value(); got != iters {
			t.Errorf("worker %s counter = %v, want %d", label, got, iters)
		}
		if got := r.Histogram("dur_seconds", "Durations.", nil, "worker").With(label).Count(); got != iters {
			t.Errorf("worker %s histogram count = %d, want %d", label, got, iters)
		}
	}
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot families = %d, want 3", len(snap))
	}
}

// TestReadFamilies: CounterFunc and GaugeFunc samples come from their read
// functions at every render, in both the text form and Snapshot, sorted by
// label values; registering again replaces the reader, a read family
// cannot take over a pushed one's name, and readers run with no registry
// lock held (this one re-registers itself and reads another family).
func TestReadFamilies(t *testing.T) {
	r := NewRegistry()
	n := 3
	r.CounterFunc("items_total", "Items.", func(emit Emit) { emit(float64(n)) })
	other := r.Counter("other_total", "Other.").With()
	var byKind func(Emit)
	byKind = func(emit Emit) {
		r.GaugeFunc("by_kind", "By kind.", byKind, "kind")
		emit(other.Value(), "b")
		emit(float64(n), "a")
	}
	r.GaugeFunc("by_kind", "By kind.", byKind, "kind")

	n = 5
	other.Add(2)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE items_total counter\nitems_total 5\n",
		"# TYPE by_kind gauge\nby_kind{kind=\"a\"} 5\nby_kind{kind=\"b\"} 2\n",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("render missing %q:\n%s", want, sb.String())
		}
	}
	snap := r.Snapshot()
	if got := snap[0].Samples; len(got) != 1 || got[0].Value != 5 {
		t.Errorf("snapshot items_total = %+v", got)
	}
	if got := snap[2].Samples; len(got) != 2 || got[0].Labels["kind"] != "a" || got[1].Value != 2 {
		t.Errorf("snapshot by_kind = %+v", got)
	}

	r.CounterFunc("items_total", "Items.", func(emit Emit) { emit(7) })
	if got := r.Snapshot()[0].Samples[0].Value; got != 7 {
		t.Errorf("re-registered reader gave %v, want 7", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a read family took over a pushed family's name")
			}
		}()
		r.CounterFunc("other_total", "Other.", func(Emit) {})
	}()
}

// TestWithExistingSeriesAllocatesNothing: the per-request With on a
// labelled series that already exists builds its key without allocating.
func TestWithExistingSeriesAllocatesNothing(t *testing.T) {
	reg := NewRegistry()
	reqs := reg.Counter("reqs_total", "t", "endpoint", "code")
	reqs.With("POST /v1/transfers", "200").Inc()
	if n := testing.AllocsPerRun(100, func() { reqs.With("POST /v1/transfers", "200").Inc() }); n != 0 {
		t.Fatalf("With on an existing series allocates %v times, want 0", n)
	}
	if got := reqs.With("POST /v1/transfers", "200").Value(); got != 102 {
		t.Fatalf("counter = %v, want 102", got)
	}
}
