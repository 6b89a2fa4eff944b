package main

import (
	"context"
	"fmt"
	"runtime"
	"time"
)

// runConfig is how long and how often one run measures. The defaults are
// the benchmark; smoke shrinks everything for the harness's own test.
type runConfig struct {
	seconds float64 // measured time, split evenly over the slices
	slices  int
	setups  int
	smoke   bool
	outDir  string // traced run: where trace-<workload>.json goes
}

func defaultConfig(seconds float64) runConfig {
	return runConfig{seconds: seconds, slices: slices, setups: setupRepeats}
}

func smokeConfig() runConfig {
	return runConfig{seconds: 0.3, slices: 1, setups: 2, smoke: true}
}

func (c runConfig) sliceDur() time.Duration {
	return time.Duration(c.seconds / float64(c.slices) * float64(time.Second))
}

func (c runConfig) warmup() time.Duration {
	return time.Duration(c.seconds / warmupShare * float64(time.Second))
}

// report is one run's result: every metric of the run's kind by name, and
// the failure accounting.
type report struct {
	Workload  string
	Seed      int64
	Traced    bool
	Metrics   map[string]summary
	Raw       map[string]summary // untraced run: timing metrics before calibration, and the machine speed
	Attempted int
	Failed    int
	Errors    []string
	Flags     []string // validity notes, e.g. a late open-loop dispatcher
	Correct   bool
}

func newReport(spec *workloadSpec, seed int64, traced bool) *report {
	return &report{Workload: spec.Name, Seed: seed, Traced: traced, Metrics: map[string]summary{}, Raw: map[string]summary{}}
}

func (r *report) set(name string, per []float64) { r.Metrics[name] = summarize(per) }

func (r *report) setOne(name string, v float64) {
	r.Metrics[name] = summary{Median: v, Min: v, Max: v, N: 1}
}

func (r *report) finish(spec *workloadSpec, t *tally) {
	r.Attempted, r.Failed, r.Errors = t.attempted, t.failed, t.errs
	r.Correct = r.Attempted > 0 && float64(r.Failed) <= spec.FailCeiling*float64(r.Attempted)
}

// timedSetUp builds the stack and reports how long that took.
func timedSetUp(ctx context.Context, seed int64, spec *workloadSpec) (*stack, float64, error) {
	t0 := time.Now()
	st, err := setUp(ctx, seed, spec, nil)
	return st, time.Since(t0).Seconds(), err
}

// variantCount is how many requests carry the unverified and unit-shape
// forms the ratio blocks replay.
const variantCount = 256

// runUntraced is the end-to-end run: set-up, warm-up (discarded), the
// measured slices, then the remaining timed set-ups. Every metric is the
// median of its per-slice values.
func runUntraced(ctx context.Context, spec *workloadSpec, seed int64, cfg runConfig) (*report, error) {
	rep := newReport(spec, seed, false)
	st, first, err := timedSetUp(ctx, seed, spec)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setups := []float64{first}
	defer st.Close() // idempotent: the normal path closes it before the later set-ups

	reqs, err := genRequests(seed, spec, st.tables, spec.Pool)
	if err != nil {
		return nil, err
	}
	p := &pool{reqs: reqs}
	variants := withVariants(append([]request(nil), reqs[:min(len(reqs), variantCount)]...))

	if spec.RotateEvery > 0 {
		st.startRotator(ctx)
	}
	cal := newCalibrator()
	runtime.GC() // start every run's slices from a collected heap
	warm := runSlice(ctx, st, p, cal, variants, cfg.warmup())
	if warm.failed > 0 && warm.failed == warm.attempted {
		return nil, fmt.Errorf("warm-up: every op failed: %v", warm.errs)
	}

	var total tally
	per, raw := map[string][]float64{}, map[string][]float64{}
	for i := 0; i < cfg.slices; i++ {
		s := runSlice(ctx, st, p, cal, variants, cfg.sliceDur())
		total.add(&s.tally)
		// Calibration (calib.go): latency and CPU per op are scaled by the
		// machine's speed during the phase they were measured in. Throughput
		// is scaled where the closed loop is the whole load; the capacity
		// half of a serve slice is reported as measured, because there the
		// coalescer trades batch size for speed — a slower machine forms
		// larger batches — so capacity barely follows machine speed, and
		// scaling it would add the probe's noise to a figure that has none.
		opsScale := 1 / s.closedSpeed
		if spec.OpenRate > 0 {
			opsScale = 1
		}
		for name, v := range map[string]float64{
			"ops_per_s": s.opsPerS * opsScale, "op_p50_us": s.p50 * s.timedSpeed,
			"protection_overhead_x": s.protectionX, "verify_overhead_x": s.verifyX,
			"cpu_us_per_op": s.cpuPerOp * s.timedSpeed, "allocs_per_op": s.allocs, "alloc_bytes_per_op": s.allocByte,
		} {
			per[name] = append(per[name], v)
		}
		for name, v := range map[string]float64{
			"ops_per_s": s.opsPerS, "op_p50_us": s.p50, "cpu_us_per_op": s.cpuPerOp,
			"machine_speed": s.timedSpeed,
		} {
			raw[name] = append(raw[name], v)
		}
		if s.lagP99 > 1000 {
			rep.Flags = append(rep.Flags, fmt.Sprintf("slice %d: open-loop dispatcher lag p99 %.0f us > 1 ms", i, s.lagP99))
		}
		if s.capWaits > 0 {
			rep.Flags = append(rep.Flags, fmt.Sprintf("slice %d: open-loop dispatcher waited %d times with %d lookups in flight", i, s.capWaits, inflightCap))
		}
	}
	if st.rot != nil {
		if err := st.rot.Stop(); err != nil {
			return nil, err
		}
	}
	for name, xs := range per {
		rep.set(name, xs)
	}
	for name, xs := range raw {
		rep.Raw[name] = summarize(xs)
	}
	rep.setOne("peak_rss_mb", peakRSSMB())

	// The other set-ups run after the measurement so their garbage is not
	// in the serving peak RSS.
	st.Close()
	for len(setups) < cfg.setups {
		st, s, err := timedSetUp(ctx, seed, spec)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", len(setups), err)
		}
		st.Close()
		setups = append(setups, s)
	}
	rep.set("setup_s", setups)
	rep.finish(spec, &total)
	return rep, nil
}
