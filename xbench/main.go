// Command xbench is the repository benchmark. It drives one workload
// through the public API as a closed-loop batch job: after one untimed
// warm-up iteration it repeats the workload until --seconds have passed,
// checks every result before reporting any number, and prints one JSON
// object as the last line of standard output.
//
//	bash xbench/run.sh --workload campaign-gpr --seed 20140901 --seconds 20 --trace 0
//
// With --trace 0 the object carries the end-to-end metrics, each the
// median over the measured iterations. With --trace 1 the run alternates
// untraced and traced iterations; the object carries the per-layer
// metrics of the last traced iteration plus the tracing overhead, and the
// full per-layer table is printed above it. README.md lists the
// workloads, the metrics, and which workload each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// defaultSeed is xentry-report's default; digests are committed for it.
const defaultSeed = 20140901

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	outDir   string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", defaultSeed, "input seed (0 means the default)")
	flag.Float64Var(&o.seconds, "seconds", 20, "seconds of measured iterations")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer measurement")
	flag.BoolVar(&o.quick, "quick", false, "run the workload at test size")
	flag.StringVar(&o.outDir, "out", ".bench_build/xbench", "directory for stores and span files")
	flag.Parse()
	o.trace = trace == 1
	if o.seed == 0 {
		// The campaign server reads seed 0 as its default; map it the same
		// way so in-process and served identities agree.
		o.seed = defaultSeed
	}
	res, lines, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xbench:", err)
		os.Exit(2)
	}
	for _, l := range lines {
		fmt.Println(l)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// sample is one measured iteration.
type sample struct {
	setup, wall float64 // seconds
	cpu         float64 // process CPU seconds during wall
	allocMB     float64 // heap MB allocated during wall
	rssMB       float64 // peak resident set size during the iteration
	injections  int
	digest      string
	traced      bool
	layers      *layerSet
	err         error
}

// run executes the warm-up and measured iterations of one workload.
func run(o options) (*result, []string, error) {
	runtime.GOMAXPROCS(runtime.NumCPU())
	w, ok := workloads[o.workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, nil, err
	}
	env := &env{opts: o}
	// The warm-up iteration fills the process-wide text and translation
	// caches and grows the heap; it is checked but never timed.
	samples := []sample{iterate(w, env, false)}
	start := time.Now()
	for i := 0; samples[len(samples)-1].err == nil; i++ {
		t := time.Now()
		samples = append(samples, iterate(w, env, o.trace && i%2 == 1))
		last := time.Since(t)
		if enough(samples[1:], o) && time.Since(start)+last > time.Duration(o.seconds*float64(time.Second)) {
			break
		}
	}
	return summarize(w, env, samples, o)
}

// enough reports whether the minimum iteration counts are met: three
// iterations behind every end-to-end median, and one traced plus one
// untraced iteration for the per-layer run.
func enough(measured []sample, o options) bool {
	var plain, traced int
	for _, s := range measured {
		if s.traced {
			traced++
		} else {
			plain++
		}
	}
	if o.trace {
		return plain >= 1 && traced >= 1
	}
	if o.quick {
		return plain >= 1
	}
	return plain >= 3
}

// iterate runs one iteration and takes its in-process deltas.
func iterate(w *workloadDef, env *env, traced bool) sample {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	clk := &clock{}
	runtime.GC()
	resetPeakRSS()
	clk.begin()
	out, err := w.run(env, clk, tr)
	clk.finish()
	s := sample{traced: traced, err: err}
	if err != nil {
		return s
	}
	s.setup = clk.setupEnd.Sub(clk.start).Seconds()
	s.wall = clk.end.Sub(clk.setupEnd).Seconds()
	s.cpu = (clk.cpuEnd - clk.cpuSetup).Seconds()
	s.allocMB = float64(clk.allocEnd-clk.allocSetup) / (1 << 20)
	s.rssMB = peakRSSMB()
	s.injections = out.injections
	s.digest = out.digest
	if traced {
		s.layers, s.err = buildLayers(env, out, tr)
	}
	return s
}

// summarize checks every iteration and reduces the samples to metrics.
func summarize(w *workloadDef, env *env, samples []sample, o options) (*result, []string, error) {
	res := &result{Attempted: len(samples), Metrics: map[string]metric{}}
	var lines []string
	want := samples[0].digest
	if !o.quick && o.seed == defaultSeed {
		if d, ok := committedDigests[w.name]; ok {
			want = d
		}
	}
	for i, s := range samples {
		err := s.err
		if err == nil && s.digest != want {
			err = fmt.Errorf("result digest %s, want %s", s.digest, want)
		}
		if err != nil {
			res.Failed++
			lines = append(lines, fmt.Sprintf("iteration %d failed: %v", i, err))
		}
	}
	lines = append(lines, fmt.Sprintf("workload %s seed %d: %d iterations, digest %s",
		w.name, o.seed, len(samples), samples[0].digest))
	res.Correct = res.Failed == 0
	if !res.Correct {
		return res, lines, nil // a failed run reports no timings
	}
	measured := samples[1:]
	if !o.trace {
		series := map[string][]float64{}
		for _, s := range measured {
			series["setup_s"] = append(series["setup_s"], s.setup)
			series["wall_s"] = append(series["wall_s"], s.wall)
			series["inj_per_s"] = append(series["inj_per_s"], float64(s.injections)/s.wall)
			series["cpu_s"] = append(series["cpu_s"], s.cpu)
			series["alloc_mb"] = append(series["alloc_mb"], s.allocMB)
			series["peak_rss_mb"] = append(series["peak_rss_mb"], s.rssMB)
		}
		for _, m := range endToEndMetrics {
			xs := series[m.name]
			res.Metrics[m.name] = metric{median(xs), m.unit}
			lines = append(lines, fmt.Sprintf("%-12s %s", m.name, fmtSeries(xs)))
		}
		return res, lines, nil
	}
	var plainWall, tracedWall []float64
	var lastTraced *layerSet
	for _, s := range measured {
		if s.traced {
			tracedWall = append(tracedWall, s.wall)
			lastTraced = s.layers
		} else {
			plainWall = append(plainWall, s.wall)
		}
	}
	lastTraced.add("trace.overhead", median(tracedWall)/median(plainWall), "ratio")
	for _, m := range lastTraced.list {
		lines = append(lines, fmt.Sprintf("layer %-40s %14.6g %s", m.name, m.Value, m.Unit))
	}
	for _, m := range perLayerMetrics {
		v, ok := lastTraced.get(m.name)
		if !ok {
			return nil, nil, fmt.Errorf("traced run did not measure %s", m.name)
		}
		res.Metrics[m.name] = v
	}
	if err := lastTraced.writeSpans(env.opts.outDir, w.name); err != nil {
		return nil, nil, err
	}
	return res, lines, nil
}

func fmtSeries(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.5g", x)
	}
	return strings.Join(parts, " ")
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// clock marks an iteration's phases. Set-up ends at the first injection
// outcome (for the report: once the model every later figure consumes is
// trained), and each mark snapshots process CPU time and heap bytes
// allocated, so the metrics are in-process deltas.
type clock struct {
	start, setupEnd, end time.Time
	once                 sync.Once
	cpuSetup, cpuEnd     time.Duration
	allocSetup, allocEnd uint64
}

func (c *clock) begin() { c.start = time.Now() }

// setupDone marks the end of set-up; only the first call counts, so
// every outcome callback may call it.
func (c *clock) setupDone() {
	c.once.Do(func() {
		c.setupEnd = time.Now()
		c.cpuSetup = cpuTime()
		c.allocSetup = allocated()
	})
}

func (c *clock) finish() {
	c.setupDone()
	c.end = time.Now()
	c.cpuEnd = cpuTime()
	c.allocEnd = allocated()
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func allocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// resetPeakRSS restarts the kernel's peak-RSS mark (VmHWM) so each
// iteration reports its own peak; one process-wide peak read once per run
// depended on GC timing and spread 20% between runs. Where the reset is
// unavailable the peak stays process-wide.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB is the peak resident set size since the last reset (VmHWM,
// which Linux reports in KiB), falling back to the process peak.
func peakRSSMB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
