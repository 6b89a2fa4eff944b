package main

import (
	"crypto/aes"
	"crypto/cipher"
	"time"
)

// Machine-speed calibration. On a shared two-core box the same binary runs
// a fifth faster or slower from one half-minute to the next — CPU time per
// op moves with it, so it is the processor, not queueing — and no run
// length a benchmark can afford averages that out. What does cancel it is
// a reference measured at the same moment: a fixed kernel of this
// package's own (standard-library AES-CTR, a multiply-accumulate sweep, a
// scattered row gather — the instruction mix of the stack, none of its
// code) is timed by a background probe throughout each load phase, and the
// slice's timing metrics are scaled by the workload's RefUnitUs over the
// measured unit time. The scaled figures read as microseconds and ops/s on
// the reference machine (this box when quiet); the raw ones are printed
// beside them. Measured on ten runs per workload in a noisy half hour:
// op_p50_us spread 29 % raw, 4.6 % scaled on sls_local; 16 % and 3.6 % on
// batch_cluster; 15 % and 9.4 % on serve_zipf.

const (
	calibBufBytes = 8 << 10
	calibRowBytes = 256
	calibRows     = 16 << 10 // 4 MiB gather table
	calibGather   = 64       // rows gathered per unit
	calibMACs     = 4096
)

// calibrator holds one goroutine's kernel state.
type calibrator struct {
	stream cipher.Stream
	buf    []byte
	table  []byte
	vec    []uint64
	acc    [calibRowBytes / 8]uint64
	next   uint32
}

func newCalibrator() *calibrator {
	block, err := aes.NewCipher(make([]byte, 16))
	if err != nil {
		panic(err) // a 16-byte key is always valid
	}
	c := &calibrator{
		stream: cipher.NewCTR(block, make([]byte, aes.BlockSize)),
		buf:    make([]byte, calibBufBytes),
		table:  make([]byte, calibRows*calibRowBytes),
		vec:    make([]uint64, calibMACs),
		next:   1,
	}
	for i := range c.vec {
		c.vec[i] = uint64(i)*0x9E3779B97F4A7C15 + 1
	}
	return c
}

// unit runs the kernel once.
func (c *calibrator) unit() {
	c.stream.XORKeyStream(c.buf, c.buf)
	var sum uint64
	w := uint64(c.buf[0]) | 1
	for _, v := range c.vec {
		sum += w * v
	}
	for g := 0; g < calibGather; g++ {
		c.next = c.next*1664525 + 1013904223
		row := c.table[int(c.next>>8)%calibRows*calibRowBytes:][:calibRowBytes]
		for j := range c.acc {
			c.acc[j] += w * (uint64(row[8*j]) | uint64(row[8*j+4])<<32)
		}
	}
	c.acc[0] += sum
}

// probe times the kernel in the background of a load phase: a few units
// every millisecond, about one percent of one core. Sampling inside the
// load, not beside it, matters: a core that was idle a moment ago (the open
// loop runs at a fifth of capacity) and a saturated one do not run the same
// code at the same speed, and the reference must be in the regime of the
// ops it scales.
type probe struct {
	stop chan struct{}
	done chan []float64
}

const (
	probeUnits  = 2
	probePeriod = time.Millisecond
)

func startProbe(c *calibrator) *probe {
	p := &probe{stop: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		var samples []float64
		tick := time.NewTicker(probePeriod)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				p.done <- samples
				return
			case <-tick.C:
			}
			t0 := time.Now()
			for u := 0; u < probeUnits; u++ {
				c.unit()
			}
			samples = append(samples, us(time.Since(t0))/probeUnits)
		}
	}()
	return p
}

// Stop ends the probe and returns every sample's microseconds per unit.
func (p *probe) Stop() []float64 {
	close(p.stop)
	return <-p.done
}
