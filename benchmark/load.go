package main

import (
	"context"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// pool is the pre-generated request stream, cycled. Requests and their
// oracles are built before the measured slices so that generation is in
// neither the latency nor the CPU and allocation accounting.
type pool struct {
	reqs []request
	next atomic.Uint64
}

func (p *pool) take() *request {
	return &p.reqs[(p.next.Add(1)-1)%uint64(len(p.reqs))]
}

// tally accumulates one phase's outcome counts and the first few distinct
// error strings.
type tally struct {
	attempted int
	failed    int
	retried   int
	mixed     int
	errs      []string
}

const maxErrStrings = 3

// note keeps msg if it is new and there is room.
func (t *tally) note(msg string) {
	for _, e := range t.errs {
		if e == msg {
			return
		}
	}
	if len(t.errs) < maxErrStrings {
		t.errs = append(t.errs, msg)
	}
}

func (t *tally) record(r opResult) {
	t.attempted++
	if r.retries > 0 {
		t.retried++
	}
	if r.mixed {
		t.mixed++
	}
	if r.err != nil {
		t.failed++
		t.note(r.err.Error())
	}
}

func (t *tally) add(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.retried += o.retried
	t.mixed += o.mixed
	for _, e := range o.errs {
		t.note(e)
	}
}

// phase is one load phase's raw measurements: a latency per completed op
// in microseconds, and for the open loop how late each dispatch ran.
type phase struct {
	lat      []float64
	lag      []float64
	capWaits int // open loop: dispatches that found inflightCap ops in flight and waited for one to end
	elapsed  time.Duration
	used     usage     // the process's CPU and allocation while the phase ran
	calibUs  []float64 // the calibration probe's samples taken inside it

	mu sync.Mutex // guards tally while the phase's goroutines run
	tally
}

func (ph *phase) recordLocked(r opResult) {
	ph.mu.Lock()
	ph.record(r)
	ph.mu.Unlock()
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// loop is what a load phase drives: the op, an optional observer of each
// finished op (the traced run records a span there), and the dispatcher's
// sleep, which the scheduler test replaces to inject a stall.
type loop struct {
	exec       func(*request) opResult
	onOp       func(req *request, start time.Time, r opResult)
	sleepUntil func(time.Time)
}

func (lp loop) finished(ph *phase, req *request, start time.Time, r opResult) {
	ph.recordLocked(r)
	if lp.onOp != nil {
		lp.onOp(req, start, r)
	}
}

// closedLoop runs clients goroutines for d, each sending its next request
// only after the previous one returned. Latency is call to return.
func closedLoop(ctx context.Context, lp loop, p *pool, clients int, d time.Duration) *phase {
	ph := &phase{}
	per := make([][]float64, clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var lat []float64
			for {
				t0 := time.Now()
				if !t0.Before(deadline) || ctx.Err() != nil {
					break
				}
				req := p.take()
				r := lp.exec(req)
				if r.err == nil {
					lat = append(lat, us(r.done.Sub(t0)))
				}
				lp.finished(ph, req, t0, r)
			}
			per[c] = lat
		}(c)
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	for _, lat := range per {
		ph.lat = append(ph.lat, lat...)
	}
	return ph
}

// sleepUntil blocks until t with nanosleep(2). time.Sleep rounds sub-
// millisecond waits of an idle process up to a millisecond, which would
// turn a 333 µs schedule into bursts of three.
func sleepUntil(t time.Time) {
	for {
		wait := time.Until(t)
		if wait <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(wait))
		_ = syscall.Nanosleep(&ts, nil) // an early wake-up (EINTR) just loops
	}
}

// openLoop dispatches rate ops per second on a fixed-gap schedule for d,
// each op in its own goroutine, whether or not earlier ones have returned
// — independent users. Latency runs from the op's due time, so a stall
// charges every op it delays. With inflightCap ops in flight the
// dispatcher waits for one to end: on a host too starved to keep up the
// ops turn late, which their latency shows, rather than fail. A schedule
// that has fallen a whole phase behind is cut short, so a starved run
// still ends; the ops never dispatched are not attempted.
func openLoop(ctx context.Context, lp loop, p *pool, rate int, d time.Duration) *phase {
	gap := time.Second / time.Duration(rate)
	n := int(d / gap)
	ph := &phase{lag: make([]float64, 0, n)}
	lat := make([]float64, n)
	for i := range lat {
		lat[i] = math.NaN()
	}
	slots := make(chan struct{}, inflightCap)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n && ctx.Err() == nil; i++ {
		due := start.Add(time.Duration(i) * gap)
		lp.sleepUntil(due)
		select {
		case slots <- struct{}{}:
		default:
			ph.capWaits++
			slots <- struct{}{}
		}
		late := time.Since(due)
		if late > d {
			<-slots
			break
		}
		ph.lag = append(ph.lag, us(late))
		wg.Add(1)
		req := p.take()
		go func(i int) {
			defer wg.Done()
			defer func() { <-slots }()
			r := lp.exec(req)
			if r.err == nil {
				lat[i] = us(r.done.Sub(due))
			}
			lp.finished(ph, req, due, r)
		}(i)
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	for _, l := range lat {
		if !math.IsNaN(l) {
			ph.lat = append(ph.lat, l)
		}
	}
	return ph
}

// usage is the process's cumulative CPU time and allocation counters.
type usage struct {
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	var u usage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u.mallocs, u.bytes = ms.Mallocs, ms.TotalAlloc
	return u
}

func (u usage) sub(o usage) usage {
	return usage{cpu: u.cpu - o.cpu, mallocs: u.mallocs - o.mallocs, bytes: u.bytes - o.bytes}
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// ratios is one slice's single-caller block timings, microseconds per op.
type ratios struct {
	verified, unverified, plain []float64
	tally
}

// ratioBlocks runs, for d, interleaved single-caller blocks of
// ratioBlockOps ops each over the variants subset: the verified op, its
// unverified counterpart, and the plaintext weighted sum of the same
// requests, so that machine noise hits all three alike. On the lookup
// workloads the verified op is not LookupBags — that would time the
// coalescing window, which protection does not cause — but the facade
// fetch the coalescer issues for the request's rows.
func ratioBlocks(ctx context.Context, st *stack, variants []request, d time.Duration) ratios {
	var rt ratios
	dst := make([]uint64, st.spec.Cols)
	block := make([]*request, ratioBlockOps)
	var sink uint64
	perOp := func(t0 time.Time) float64 { return us(time.Since(t0)) / ratioBlockOps }
	deadline := time.Now().Add(d)
	for k := 0; time.Now().Before(deadline) && ctx.Err() == nil; k += ratioBlockOps {
		for i := range block {
			block[i] = &variants[(k+i)%len(variants)]
		}
		t0 := time.Now()
		for _, req := range block {
			if st.svc != nil {
				rt.record(opResult{err: st.fetch(ctx, req, true)})
			} else {
				rt.record(st.exec(ctx, req))
			}
		}
		rt.verified = append(rt.verified, perOp(t0))

		t0 = time.Now()
		for _, req := range block {
			rt.record(opResult{err: st.execUnverified(ctx, req)})
		}
		rt.unverified = append(rt.unverified, perOp(t0))

		t0 = time.Now()
		for _, req := range block {
			sink += st.execPlain(req, dst)
		}
		rt.plain = append(rt.plain, perOp(t0))
	}
	runtime.KeepAlive(sink)
	return rt
}

// sliceResult is one measured slice reduced to the per-slice values whose
// medians the run reports. The timing figures are raw; speed is what
// calibration scales them by.
type sliceResult struct {
	opsPerS, p50                float64
	protectionX, verifyX        float64
	cpuPerOp, allocs, allocByte float64
	lagP99                      float64
	capWaits                    int
	timedSpeed, closedSpeed     float64 // machine speed during the phase the figure came from
	tally
}

// load is one slice's load phases: an open-loop half then a closed-loop
// half on the lookup workloads, one closed loop otherwise. Latency and CPU
// per op come from the open loop when there is one (timed) — the phase
// whose schedule fixes the work done — and throughput always from the
// closed loop.
type load struct {
	timed, closed *phase
}

// measured runs one phase with the calibration probe and the usage
// counters around it.
func measured(cal *calibrator, run func() *phase) *phase {
	pr := startProbe(cal)
	before := readUsage()
	ph := run()
	ph.used = readUsage().sub(before)
	ph.calibUs = pr.Stop()
	return ph
}

// speed is how fast the machine ran the calibration kernel during the
// phase, as a share of the reference machine: above 1 when running fast.
func (ph *phase) speed(refUnitUs float64) float64 {
	if c := median(ph.calibUs); c > 0 {
		return refUnitUs / c
	}
	return 1
}

func runLoad(ctx context.Context, st *stack, p *pool, cal *calibrator, d time.Duration, onOp func(*request, time.Time, opResult)) load {
	clients := st.spec.Clients
	if clients == 0 {
		clients = runtime.NumCPU()
	}
	lp := loop{exec: func(r *request) opResult { return st.exec(ctx, r) }, onOp: onOp, sleepUntil: sleepUntil}
	if st.spec.OpenRate > 0 {
		return load{
			timed:  measured(cal, func() *phase { return openLoop(ctx, lp, p, st.spec.OpenRate, d/2) }),
			closed: measured(cal, func() *phase { return closedLoop(ctx, lp, p, clients, d/2) }),
		}
	}
	closed := measured(cal, func() *phase { return closedLoop(ctx, lp, p, clients, d) })
	return load{timed: closed, closed: closed}
}

func runSlice(ctx context.Context, st *stack, p *pool, cal *calibrator, variants []request, d time.Duration) sliceResult {
	var s sliceResult
	loadDur := time.Duration(float64(d) * (1 - ratioShare))
	ld := runLoad(ctx, st, p, cal, loadDur, nil)

	s.add(&ld.closed.tally)
	used, ops := ld.closed.used, float64(len(ld.closed.lat))
	if ld.timed != ld.closed {
		s.add(&ld.timed.tally)
		used = usage{mallocs: used.mallocs + ld.timed.used.mallocs, bytes: used.bytes + ld.timed.used.bytes}
		ops += float64(len(ld.timed.lat))
		s.lagP99 = percentile(ld.timed.lag, 0.99)
		s.capWaits = ld.timed.capWaits
	}
	s.opsPerS = float64(len(ld.closed.lat)) / ld.closed.elapsed.Seconds()
	s.closedSpeed = ld.closed.speed(st.spec.RefUnitUs)
	s.p50 = percentile(ld.timed.lat, 0.50)
	s.timedSpeed = ld.timed.speed(st.spec.RefUnitUs)
	if n := float64(len(ld.timed.lat)); n > 0 {
		s.cpuPerOp = us(ld.timed.used.cpu) / n
	}
	if ops > 0 {
		s.allocs = float64(used.mallocs) / ops
		s.allocByte = float64(used.bytes) / ops
	}

	rt := ratioBlocks(ctx, st, variants, d-loadDur)
	s.add(&rt.tally)
	if plain := median(rt.plain); plain > 0 {
		s.protectionX = median(rt.verified) / plain
	}
	if unv := median(rt.unverified); unv > 0 {
		s.verifyX = median(rt.verified) / unv
	}
	return s
}
