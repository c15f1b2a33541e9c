package xentry

import (
	"runtime"
	"testing"

	"xentry/internal/inject"
)

// TestInjectionPassAllocs holds a warm worker's pass over an engine
// variant's 256 plans (engineWorker, the throughput benches' own setup) to
// an allocation ceiling in objects and in bytes. The register variants
// allocate 117–121 objects and 4.4–4.7 KB per pass, under one object and
// 20 bytes per run, and the uncore site classes nothing. Counts drift by a
// few objects between passes, so the register ceilings leave that much
// room while staying under half an object and 24 bytes per run. K=16 and
// K=off replay prefixes and are left to the benches.
func TestInjectionPassAllocs(t *testing.T) {
	type ceiling struct{ objects, bytes float64 }
	register := ceiling{128, 6144}
	ceilings := map[string]ceiling{
		"K=1":         register,
		"K=1+recover": register,
		"K=1+restore": register,
		"K=1+sec6":    register,
		"gpr":         register,
		"dtlb":        {},
		"apic":        {},
		"pmu":         {},
		"pgtable":     {},
	}
	for _, v := range append(campaignVariants, siteVariants()...) {
		limit, ok := ceilings[v.name]
		if !ok {
			if v.target != "" {
				t.Errorf("site class %s has no allocation ceiling", v.name)
			}
			continue
		}
		t.Run(v.name, func(t *testing.T) {
			worker, plans := engineWorker(t, v)
			pass := func() {
				for _, p := range plans {
					if _, err := worker.RunOne(p); err != nil {
						t.Fatal(err)
					}
				}
			}
			objects, bytes := passAllocs(3, pass)
			if objects > limit.objects || bytes > limit.bytes {
				t.Errorf("a pass over %d plans allocates %.0f objects and %.0f bytes, ceiling %.0f and %.0f",
					len(plans), objects, bytes, limit.objects, limit.bytes)
			}
		})
	}
}

// TestPrepareBenchmarkBytes holds PrepareBenchmark on
// campaign-smp-recover's machine shape (prepareConfig), pruning off as its
// runners run, to a bytes ceiling. Its 100 plans restore 76 of the 160
// slots, slot 0 included, and the preparation allocates about 705 KB; a
// pool of every slot reads about 1,052 KB. The ceiling sits between the
// two, so a preparation that builds slots no plan restores fails.
func TestPrepareBenchmarkBytes(t *testing.T) {
	const ceiling = 880 << 10
	cfg := prepareConfig(nil, false)
	_, bytes := passAllocs(3, func() {
		if _, err := inject.PrepareBenchmark(cfg, 0); err != nil {
			t.Fatal(err)
		}
	})
	if bytes > ceiling {
		t.Errorf("PrepareBenchmark allocates %.0f bytes, ceiling %d", bytes, ceiling)
	}
}

// passAllocs returns the objects and bytes one warm call of pass
// allocates, averaged over runs calls, counted as testing.AllocsPerRun
// counts objects. The counters are process-wide, and the runtime's own
// goroutines allocate a few small objects after a GC cycle (the unique
// package's map cleanup, the scavenger re-arming its timer); a cycle
// that the setup's garbage started could land them inside the window.
// So the window opens only after a full GC and a yield, which let those
// goroutines run first.
func passAllocs(runs int, pass func()) (objects, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	pass()
	runtime.GC()
	runtime.Gosched()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		pass()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestStepAllocFree holds BenchmarkStep's pass, a warm worker machine
// stepping a 160-activation fault-free run, at 0 allocations, at 1 and 4
// vCPUs.
func TestStepAllocFree(t *testing.T) {
	for _, vcpus := range []int{1, 4} {
		pass := stepPass(t, vcpus)
		pass() // builds the pool; AllocsPerRun's own warm-up pass still allocates a dozen objects
		if n := testing.AllocsPerRun(3, pass); n != 0 {
			t.Errorf("vcpus=%d: a %d-activation pass allocates %.0f times, want 0", vcpus, stepActivations, n)
		}
	}
}
