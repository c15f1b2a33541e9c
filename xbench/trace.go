package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"xentry/internal/inject"
)

// span is one timed call at a layer boundary. Lane 0 is the driving
// goroutine; lanes 1..n are campaign or fleet workers. site is the fault
// site class of an injection run (-1 for other spans).
type span struct {
	name       string
	lane       int32
	parent     int32
	site       int8
	start, end int64 // ns since the tracer's origin
}

// tracer records spans in memory; they are written out once the run ends.
// Every method is a no-op on a nil tracer, so untraced code paths can
// share helpers with traced ones.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) begin(name string, lane int, parent int32) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, lane: int32(lane), parent: parent, site: -1, start: now, end: -1})
	return int32(len(t.spans) - 1)
}

func (t *tracer) finish(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// add records a span that has already ended.
func (t *tracer) add(name string, lane int, parent int32, site int8, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, lane: int32(lane), parent: parent, site: site,
		start: int64(start.Sub(t.origin)), end: int64(end.Sub(t.origin))})
	t.mu.Unlock()
}

// do runs f inside a span.
func (t *tracer) do(name string, lane int, parent int32, f func() error) error {
	id := t.begin(name, lane, parent)
	defer t.finish(id)
	return f()
}

// runOneName names an injection run's span by how the engine executed it.
func runOneName(o *inject.Outcome) string {
	switch {
	case o.Recovery.Attempted:
		return "inject.run_one.recovered"
	case o.Pruned == inject.PruneDead:
		return "inject.run_one.dead"
	case o.Pruned == inject.PruneConverged:
		return "inject.run_one.converged"
	}
	return "inject.run_one.full"
}

// campaignRun is a decomposed campaign's result and per-plan outcomes.
type campaignRun struct {
	res      *inject.CampaignResult
	outcomes map[string][]inject.Outcome
}

// tracedCampaign is inject.RunCampaign decomposed into the public
// primitives it composes — PrepareBenchmark, ActivationOrder, one
// Worker.RunOne loop per goroutine claiming plans through an atomic
// counter, and Tally.Add at the original plan index — with a span around
// each. firstOutcome is called after every injection run.
func tracedCampaign(name string, cfg inject.CampaignConfig, tr *tracer, parent int32, firstOutcome func()) (*campaignRun, error) {
	cfg = cfg.Normalized()
	root := tr.begin(name, 0, parent)
	defer tr.finish(root)
	run := &campaignRun{
		res:      &inject.CampaignResult{PerBenchmark: map[string]*inject.Tally{}, Total: inject.NewTally()},
		outcomes: map[string][]inject.Outcome{},
	}
	for bi, bench := range cfg.Benchmarks {
		var br *inject.BenchmarkRun
		if err := tr.do("inject.prepare", 0, root, func() (err error) {
			br, err = inject.PrepareBenchmark(cfg, bi)
			return
		}); err != nil {
			return nil, err
		}
		var order []int
		tr.do("inject.activation_order", 0, root, func() error { order = inject.ActivationOrder(br.Plans); return nil })
		outcomes := make([]inject.Outcome, len(br.Plans))
		errs := make([]error, len(br.Plans))
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < cfg.Workers; w++ {
			lane := w + 1
			wg.Add(1)
			go func() {
				defer wg.Done()
				ws := tr.begin("inject.worker", lane, root)
				defer tr.finish(ws)
				worker := br.Runner.NewWorker()
				for {
					n := next.Add(1) - 1
					if n >= int64(len(order)) {
						return
					}
					i := order[n]
					t0 := time.Now()
					o, err := worker.RunOne(br.Plans[i])
					tr.add(runOneName(&o), lane, ws, int8(o.Plan.Site), t0, time.Now())
					outcomes[i], errs[i] = o, err
					firstOutcome()
				}
			}()
		}
		wg.Wait()
		for _, i := range order {
			if errs[i] != nil {
				return nil, fmt.Errorf("%s plan %v: %w", bench, br.Plans[i], errs[i])
			}
		}
		tr.do("inject.tally", 0, root, func() error {
			tally := inject.NewTally()
			for _, o := range outcomes {
				tally.Add(o)
			}
			run.res.PerBenchmark[bench] = tally
			run.res.Total.Merge(tally)
			return nil
		})
		run.outcomes[bench] = outcomes
	}
	run.res.Normalize()
	return run, nil
}

// selfTimes derives each span's self time: its duration minus the part of
// its interval its child spans cover (children on several lanes may
// overlap, so the covered part is the union of their intervals).
func selfTimes(spans []span) []int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ivs := make([][2]int64, 0, len(children[i]))
		for _, c := range children[i] {
			ivs = append(ivs, [2]int64{spans[c].start, spans[c].end})
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, curS, curE int64 = 0, -1, -1
		for _, iv := range ivs {
			if iv[0] > curE {
				covered += curE - curS
				curS, curE = iv[0], iv[1]
			} else if iv[1] > curE {
				curE = iv[1]
			}
		}
		covered += curE - curS
		self[i] = (s.end - s.start) - covered
	}
	return self
}

// layerSet is one traced iteration's per-layer metrics, in report order,
// plus the spans they were derived from.
type layerSet struct {
	list  []namedMetric
	spans []span
	self  []int64
}

type namedMetric struct {
	name string
	metric
}

func (l *layerSet) add(name string, v float64, unit string) {
	l.list = append(l.list, namedMetric{name, metric{v, unit}})
}

func (l *layerSet) get(name string) (metric, bool) {
	for _, m := range l.list {
		if m.name == name {
			return m.metric, true
		}
	}
	return metric{}, false
}

// total is the summed duration of every span with the name, in seconds.
func (l *layerSet) total(name string) float64 {
	var ns int64
	for _, s := range l.spans {
		if s.name == name {
			ns += s.end - s.start
		}
	}
	return float64(ns) / 1e9
}

// durations lists the durations of matching spans in microseconds.
func (l *layerSet) durations(match func(s *span) bool) []float64 {
	var xs []float64
	for i := range l.spans {
		if match(&l.spans[i]) {
			xs = append(xs, float64(l.spans[i].end-l.spans[i].start)/1e3)
		}
	}
	sort.Float64s(xs)
	return xs
}

// addLatency reports a latency distribution as .p50, .p99 and .n.
func (l *layerSet) addLatency(name, unit string, xs []float64, scale float64) {
	l.add(name+".p50", quantile(xs, 0.50)*scale, unit)
	l.add(name+".p99", quantile(xs, 0.99)*scale, unit)
	l.add(name+".n", float64(len(xs)), "count")
}

// quantile is the nearest-rank quantile of sorted xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(q*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// selfSumFrac is the per-worker sum of span self times over the
// iteration's duration: for each worker lane w, the self time of every
// span below the iteration root on the driving lane or on w. The smallest
// share over the workers is reported; time no span covers lowers it.
func (l *layerSet) selfSumFrac() float64 {
	root := -1
	for i, s := range l.spans {
		if s.name == "iteration" {
			root = i
			break
		}
	}
	if root < 0 {
		return 0
	}
	lanes := map[int32]bool{}
	for _, s := range l.spans {
		if s.lane > 0 {
			lanes[s.lane] = true
		}
	}
	under := func(i int) bool {
		for p := l.spans[i].parent; p >= 0; p = l.spans[p].parent {
			if int(p) == root {
				return true
			}
		}
		return false
	}
	dur := float64(l.spans[root].end - l.spans[root].start)
	best := 0.0
	first := true
	for w := range lanes {
		var sum int64
		for i, s := range l.spans {
			if (s.lane == 0 || s.lane == w) && under(i) {
				sum += l.self[i]
			}
		}
		if f := float64(sum) / dur; first || f < best {
			best, first = f, false
		}
	}
	return best
}

// writeSpans writes the spans with their self times as CSV.
func (l *layerSet) writeSpans(dir, workload string) error {
	path := filepath.Join(dir, "spans-"+workload+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,lane,name,site,start_ns,end_ns,self_ns")
	for i, s := range l.spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d,%d,%d\n", i, s.parent, s.lane, s.name, s.site, s.start, s.end, l.self[i])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
