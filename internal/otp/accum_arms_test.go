package otp

import (
	"flag"
	"os"
	"testing"
	_ "unsafe" // go:linkname
)

// ringAccumAsm is package ring's switch between its AVX2 multiply-accumulate
// and the Go loops.
//
//go:linkname ringAccumAsm secndp/internal/ring.useAccumAsm
var ringAccumAsm bool

// TestMain runs every test of the package twice on a CPU with ring's AVX2
// multiply-accumulate: once on it and once on the Go loops, so both arms
// of the kernel pass every oracle here. Fuzzing and benchmark runs
// (-fuzz, -bench) take the first arm only, so they report one set of
// results per name.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 && ringAccumAsm && flag.Lookup("test.fuzz").Value.String() == "" &&
		flag.Lookup("test.bench").Value.String() == "" {
		ringAccumAsm = false
		code = m.Run()
	}
	os.Exit(code)
}
